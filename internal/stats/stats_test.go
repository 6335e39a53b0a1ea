package stats_test

import (
	"context"
	"fmt"
	"testing"

	"xmlsql/internal/bench"
	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/stats"
	"xmlsql/internal/translate"
)

// handStore builds a two-table store with known exact statistics:
//
//	parent(id, name):            4 rows, distinct names {a,b,c} (one repeated)
//	child(id, parentid, score):  7 rows, parentid fan-out 7/3, two NULL scores
func handStore(t *testing.T) *relational.Store {
	t.Helper()
	store := relational.NewStore()
	parent, err := store.CreateTable(&relational.TableSchema{
		Name:       "parent",
		Columns:    []relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "name", Kind: relational.KindString}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "a"} {
		parent.MustInsert(relational.Row{relational.Int(int64(i + 1)), relational.String(name)})
	}
	child, err := store.CreateTable(&relational.TableSchema{
		Name: "child",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
			{Name: "score", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := []relational.Value{
		relational.Int(10), relational.Int(20), relational.Value{}, // NULL
		relational.Int(10), relational.Int(-5), relational.Value{}, // NULL
		relational.Int(30),
	}
	parents := []int64{1, 1, 1, 2, 2, 3, 3}
	for i := range scores {
		child.MustInsert(relational.Row{relational.Int(int64(i + 1)), relational.Int(parents[i]), scores[i]})
	}
	return store
}

// TestCollectExactness checks every collected figure against hand counts:
// row counts, distinct values, null counts, and histogram buckets.
func TestCollectExactness(t *testing.T) {
	s := stats.CollectStore(handStore(t))
	if s.TotalRows != 11 {
		t.Fatalf("TotalRows = %d, want 11", s.TotalRows)
	}

	p := s.Table("parent")
	if p == nil || p.Rows != 4 {
		t.Fatalf("parent rows = %+v, want 4", p)
	}
	name := p.Column("name")
	if name.Distinct != 3 || name.Nulls != 0 {
		t.Fatalf("parent.name distinct=%d nulls=%d, want 3, 0", name.Distinct, name.Nulls)
	}
	if got := name.Histogram[relational.String("a").Key()]; got != 2 {
		t.Fatalf("histogram[a] = %d, want 2", got)
	}
	if got := name.Histogram[relational.String("b").Key()]; got != 1 {
		t.Fatalf("histogram[b] = %d, want 1", got)
	}

	c := s.Table("child")
	if c.Rows != 7 {
		t.Fatalf("child rows = %d, want 7", c.Rows)
	}
	score := c.Column("score")
	if score.Nulls != 2 || score.Distinct != 4 {
		t.Fatalf("child.score nulls=%d distinct=%d, want 2, 4", score.Nulls, score.Distinct)
	}
	pid := c.Column("parentid")
	if pid.Distinct != 3 {
		t.Fatalf("child.parentid distinct = %d, want 3", pid.Distinct)
	}
	if fan := c.FanOut("parentid"); fan < 2.33 || fan > 2.34 {
		t.Fatalf("child.parentid fan-out = %g, want 7/3", fan)
	}
	if frac := c.EqFraction("parentid", relational.Int(1)); frac != 3.0/7.0 {
		t.Fatalf("EqFraction(parentid=1) = %g, want 3/7", frac)
	}
	if frac := c.NullFraction("score"); frac != 2.0/7.0 {
		t.Fatalf("NullFraction(score) = %g, want 2/7", frac)
	}
}

// TestHistogramOverflow checks that a column crossing HistogramCap distinct
// values demotes to distinct-only tracking: no histogram survives, but the
// distinct count stays exact.
func TestHistogramOverflow(t *testing.T) {
	store := relational.NewStore()
	tbl, err := store.CreateTable(&relational.TableSchema{
		Name:       "wide",
		Columns:    []relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "v", Kind: relational.KindString}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	n := stats.HistogramCap*3 + 7
	for i := 0; i < n; i++ {
		tbl.MustInsert(relational.Row{relational.Int(int64(i)), relational.String(fmt.Sprintf("v%04d", i))})
	}
	c := stats.CollectStore(store).Table("wide").Column("v")
	if c.Histogram != nil {
		t.Fatalf("histogram kept for %d distinct values (cap %d)", c.Distinct, stats.HistogramCap)
	}
	if c.Distinct != int64(n) {
		t.Fatalf("distinct = %d, want %d", c.Distinct, n)
	}
	// A narrow column in the same table keeps its histogram.
	if id := stats.CollectStore(store).Table("wide").Column("id"); id.Histogram != nil {
		// id also overflows (n distinct) — expected nil too.
		t.Fatalf("id histogram unexpectedly kept")
	}
}

// TestFingerprintTracksMutations checks the staleness contract at the stats
// level: identical data fingerprints identically across re-collections, and
// any mutation (delete, update) changes the fingerprint.
func TestFingerprintTracksMutations(t *testing.T) {
	store := handStore(t)
	fp1 := stats.CollectStore(store).Fingerprint()
	fp2 := stats.CollectStore(store).Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("re-collection over unchanged data changed fingerprint: %s vs %s", fp1, fp2)
	}

	child := store.Table("child")
	if n := child.DeleteWhere(func(r relational.Row) bool { return r[1].Equal(relational.Int(3)) }); n != 2 {
		t.Fatalf("deleted %d rows, want 2", n)
	}
	fp3 := stats.CollectStore(store).Fingerprint()
	if fp3 == fp1 {
		t.Fatalf("DeleteWhere did not change fingerprint %s", fp1)
	}

	if _, err := child.UpdateWhere(
		func(r relational.Row) bool { return r[2].Equal(relational.Int(10)) },
		func(r relational.Row) relational.Row { r[2] = relational.Int(11); return r },
	); err != nil {
		t.Fatal(err)
	}
	if fp4 := stats.CollectStore(store).Fingerprint(); fp4 == fp3 {
		t.Fatalf("UpdateWhere did not change fingerprint %s", fp3)
	}
}

// TestEstimatorBoundedError executes every headline bench case and checks the
// estimator's predicted cardinality for the pruned (or fallback) translation
// against the exact result size: within a factor of 4 both ways. The pruned
// plan is the one adaptive serving estimates, so this bounds the error the
// knob chooser actually acts on.
func TestEstimatorBoundedError(t *testing.T) {
	const maxFactor = 4.0
	for _, c := range bench.Suite(bench.DefaultScale()) {
		store := relational.NewStore()
		if _, err := shred.ShredAll(c.Schema, store, c.ShredOpts, c.Doc); err != nil {
			t.Fatalf("%s %s: shred: %v", c.Experiment, c.Query, err)
		}
		q, err := pathexpr.Parse(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		g, err := pathid.Build(c.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := core.Translate(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
		if err != nil {
			t.Fatalf("%s %s: execute: %v", c.Experiment, c.Query, err)
		}
		est := stats.NewEstimator(stats.CollectStore(store)).EstimateQuery(pruned.Query)
		actual := float64(res.Len())
		if actual == 0 {
			continue // no bounded-ratio claim on empty results
		}
		if est.Rows > actual*maxFactor || est.Rows < actual/maxFactor {
			t.Errorf("%s %-45s estimated %.1f rows, actual %.0f (outside %gx)",
				c.Experiment, c.Query, est.Rows, actual, maxFactor)
		}
		if est.Cost <= 0 {
			t.Errorf("%s %s: non-positive cost %g", c.Experiment, c.Query, est.Cost)
		}
	}
}

// TestEstimatorRecursiveCTE checks that translations carrying a recursive
// CTE (the E6 descendant-under-recursion cases) produce a CTE estimate with
// bounded fixpoint rounds, a positive cost, and branch detail.
func TestEstimatorRecursiveCTE(t *testing.T) {
	tested := 0
	for _, c := range bench.Suite(bench.DefaultScale()) {
		q, err := pathexpr.Parse(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		g, err := pathid.Build(c.Schema, q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := translate.Naive(g)
		if err != nil {
			t.Fatal(err)
		}
		hasRec := false
		for _, cte := range naive.With {
			if cte.Recursive {
				hasRec = true
			}
		}
		if !hasRec {
			continue
		}
		store := relational.NewStore()
		if _, err := shred.ShredAll(c.Schema, store, c.ShredOpts, c.Doc); err != nil {
			t.Fatal(err)
		}
		est := stats.NewEstimator(stats.CollectStore(store)).EstimateQuery(naive)
		recursive := 0
		for _, cte := range est.CTEs {
			if !cte.Recursive {
				continue
			}
			recursive++
			if cte.Rounds < 1 || cte.Rounds > stats.FixpointDepth {
				t.Fatalf("%s: recursive CTE %s rounds = %d, want 1..%d", c.Query, cte.Name, cte.Rounds, stats.FixpointDepth)
			}
			if cte.Cost <= 0 {
				t.Fatalf("%s: recursive CTE %s cost = %g", c.Query, cte.Name, cte.Cost)
			}
		}
		if recursive == 0 {
			t.Fatalf("%s: recursive SQL estimated without a recursive CTE entry", c.Query)
		}
		if len(est.Branches) == 0 {
			t.Fatalf("%s: estimate carries no branch detail", c.Query)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no bench case translated to recursive SQL; estimator's CTE path untested")
	}
}

// TestFingerprintForScope checks the relation-scoped fingerprint: stable
// across writes to other relations (and across version-only changes), moved
// by writes to a named relation, and stable under rels ordering.
func TestFingerprintForScope(t *testing.T) {
	store := handStore(t)
	before := stats.CollectStore(store)

	fpChild := before.FingerprintFor([]string{"child"})
	fpParent := before.FingerprintFor([]string{"parent"})
	fpBoth := before.FingerprintFor([]string{"parent", "child"})
	if fpBoth != before.FingerprintFor([]string{"child", "parent"}) {
		t.Fatal("FingerprintFor is order-sensitive")
	}

	// Mutate parent only.
	store.Table("parent").MustInsert(relational.Row{relational.Int(99), relational.String("z")})
	after := stats.CollectStore(store)

	if got := after.FingerprintFor([]string{"child"}); got != fpChild {
		t.Fatalf("child fingerprint moved on a parent-only write: %s -> %s", fpChild, got)
	}
	if got := after.FingerprintFor([]string{"parent"}); got == fpParent {
		t.Fatal("parent fingerprint unchanged by a parent write")
	}
	if got := after.FingerprintFor([]string{"parent", "child"}); got == fpBoth {
		t.Fatal("union fingerprint unchanged by a member write")
	}
	// The full (unscoped) fingerprint must also have moved.
	if before.Fingerprint() == after.Fingerprint() {
		t.Fatal("global fingerprint unchanged by a write")
	}
	// Unknown relations are representable and distinct from known ones.
	if after.FingerprintFor([]string{"nope"}) == after.FingerprintFor([]string{"child"}) {
		t.Fatal("absent relation fingerprints like a present one")
	}
}
