package xmlsql_test

import (
	"context"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
)

// The corruption differential suite: mutate a shredded store (drop child
// tuples, flip parentcode values, null out mandatory leaf columns), load the
// dirty rows into a database backend, and check three things per scenario:
//
//  1. the pruned translation really does return wrong answers on the dirty
//     instance (where the corruption breaks a pruning assumption),
//  2. the integrity audit pinpoints every injected violation with its
//     violated property, and
//  3. a Planner over the dirty backend, once audited, transparently serves
//     baseline (safe-mode) plans whose answers match the fault-free
//     reference engine running the same baseline SQL over the same rows.
type corruptionScenario struct {
	name    string
	schema  *xmlsql.Schema
	doc     *xmlsql.Document
	queries []string
	// corrupt mutates the staging store and returns the (property,
	// relation) pairs the audit must report.
	corrupt func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation
	// wantDiverge asserts that at least one pruned query answer differs
	// from the baseline ground truth on the dirty instance.
	wantDiverge bool
}

type expectedViolation struct {
	property xmlsql.IntegrityProperty
	relation string
}

func corruptionScenarios(t *testing.T) []corruptionScenario {
	t.Helper()
	return []corruptionScenario{
		{
			// Dropping an Item leaves its InCategory children dangling.
			// Pruned Q1 scans InCat alone and still returns their
			// categories; the baseline join does not.
			name:    "xmark/drop-item",
			schema:  workloads.XMark(),
			doc:     workloads.GenerateXMark(workloads.DefaultXMarkConfig()),
			queries: []string{workloads.QueryQ1, workloads.QueryQ2, workloads.QueryQ8},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				dropFirstRow(t, store, "Item")
				return []expectedViolation{{xmlsql.PropertyP2, "InCat"}}
			},
			wantDiverge: true,
		},
		{
			// An orphan InCat tuple (dangling parentid, NULL columns) is
			// invisible to the baseline join but shows up in pruned scans.
			name:    "xmark/orphan-incat",
			schema:  workloads.XMark(),
			doc:     workloads.GenerateXMark(workloads.DefaultXMarkConfig()),
			queries: []string{workloads.QueryQ1, workloads.QueryQ2},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				if err := shred.InjectOrphan(s, store, "InCat", 424242); err != nil {
					t.Fatal(err)
				}
				return []expectedViolation{{xmlsql.PropertyP2, "InCat"}}
			},
			wantDiverge: true,
		},
		{
			// Dropping the R1 root tuple leaves every R2 tuple dangling.
			// Pruned //x starts its join at R2 (the root join is pruned
			// away) and still returns all x values; the baseline, which
			// joins down from R1, returns nothing.
			name:    "s1/drop-root",
			schema:  workloads.S1(),
			doc:     workloads.GenerateS1(8, 1),
			queries: []string{workloads.QueryQ3},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				dropFirstRow(t, store, "R1")
				return []expectedViolation{{xmlsql.PropertyP2, "R2"}}
			},
			wantDiverge: true,
		},
		{
			// Flipping a y tuple's parentcode from 2 to 3 moves it outside
			// R3's declared pc domain {1, 2} and makes it unplaceable under
			// its b parent: detected as P3 + P1. The pruned //x plan keeps
			// its positive pc conditions, so this one is detection-only.
			name:    "s1/flip-parentcode",
			schema:  workloads.S1(),
			doc:     workloads.GenerateS1(8, 1),
			queries: []string{workloads.QueryQ3},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				flipFirstInt(t, store, "R3", "pc", 2, 3)
				return []expectedViolation{{xmlsql.PropertyP3, "R3"}, {xmlsql.PropertyP1, "R3"}}
			},
		},
		{
			// Flipping a T1 tuple's pc from 1 to 2 makes it unplaceable
			// (no chain into T1 carries pc = 2) and out of domain.
			name:    "s2/flip-parentcode",
			schema:  workloads.S2(),
			doc:     workloads.GenerateS2(5, 1),
			queries: []string{"//t1", "//t2"},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				flipFirstInt(t, store, "T1", "pc", 1, 2)
				return []expectedViolation{{xmlsql.PropertyP3, "T1"}, {xmlsql.PropertyP1, "T1"}}
			},
		},
		{
			// Nulling a catalogue Category's name violates conformance
			// (every Cat node carries the name column): detection-only, the
			// NULL flows through pruned and baseline plans alike.
			name:    "xmarkfull/null-leaf",
			schema:  workloads.XMarkFull(),
			doc:     workloads.GenerateXMarkFull(workloads.DefaultXMarkConfig()),
			queries: []string{workloads.QueryQ1, "/Site/Categories/Category"},
			corrupt: func(t *testing.T, s *xmlsql.Schema, store *xmlsql.Store) []expectedViolation {
				nullFirstColumn(t, store, "Cat", "name")
				return []expectedViolation{{xmlsql.PropertyP3, "Cat"}}
			},
		},
	}
}

func dropFirstRow(t *testing.T, store *xmlsql.Store, rel string) {
	t.Helper()
	tbl := store.Table(rel)
	if tbl == nil || tbl.Len() == 0 {
		t.Fatalf("no rows in %s to drop", rel)
	}
	idIdx := tbl.Schema().ColumnIndex("id")
	victim := tbl.Rows()[0][idIdx]
	if n := tbl.DeleteWhere(func(r relational.Row) bool { return r[idIdx].Equal(victim) }); n != 1 {
		t.Fatalf("dropped %d rows from %s, want 1", n, rel)
	}
}

func flipFirstInt(t *testing.T, store *xmlsql.Store, rel, col string, from, to int64) {
	t.Helper()
	tbl := store.Table(rel)
	idx := tbl.Schema().ColumnIndex(col)
	if idx < 0 {
		t.Fatalf("%s has no column %s", rel, col)
	}
	flipped := false
	_, err := tbl.UpdateWhere(
		func(r relational.Row) bool {
			if flipped || r[idx].IsNull() || r[idx].AsInt() != from {
				return false
			}
			flipped = true
			return true
		},
		func(r relational.Row) relational.Row {
			nr := r.Clone()
			nr[idx] = relational.Int(to)
			return nr
		})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatalf("no %s row with %s = %d to flip", rel, col, from)
	}
}

func nullFirstColumn(t *testing.T, store *xmlsql.Store, rel, col string) {
	t.Helper()
	tbl := store.Table(rel)
	idx := tbl.Schema().ColumnIndex(col)
	if idx < 0 {
		t.Fatalf("%s has no column %s", rel, col)
	}
	done := false
	if _, err := tbl.UpdateWhere(
		func(r relational.Row) bool {
			if done {
				return false
			}
			done = true
			return true
		},
		func(r relational.Row) relational.Row {
			nr := r.Clone()
			nr[idx] = relational.Null
			return nr
		}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("no rows in %s", rel)
	}
}

func TestCorruptionDifferential(t *testing.T) {
	ctx := context.Background()
	for _, sc := range corruptionScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := sc.schema
			staging := xmlsql.NewStore()
			if _, err := xmlsql.Shred(s, staging, sc.doc); err != nil {
				t.Fatal(err)
			}
			expected := sc.corrupt(t, s, staging)

			// Ground truth: the baseline translation of [9] is correct on
			// any instance, so its answers over a fault-free engine on the
			// corrupted rows define what every query should return.
			truth := map[string]*xmlsql.Result{}
			for _, q := range sc.queries {
				naive, err := xmlsql.TranslateNaive(s, xmlsql.MustParseQuery(q))
				if err != nil {
					t.Fatal(err)
				}
				if truth[q], err = xmlsql.Execute(context.Background(), staging, naive, xmlsql.ExecuteOptions{}); err != nil {
					t.Fatal(err)
				}
			}

			// Load the dirty rows into a database backend.
			raw := fakedb.Open()
			db := xmlsql.NewDBBackend(raw, xmlsql.DialectSQLite)
			defer db.Close()
			if err := db.EnsureSchema(s); err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Exec(xmlsql.GenerateLoadScript(staging, xmlsql.DialectSQLite)); err != nil {
				t.Fatal(err)
			}

			// 1. Pruned answers must actually be wrong where the corruption
			// breaks a pruning assumption.
			if sc.wantDiverge {
				diverged := false
				for _, q := range sc.queries {
					tr, err := xmlsql.Translate(s, xmlsql.MustParseQuery(q))
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.Execute(ctx, tr.Query)
					if err != nil {
						t.Fatal(err)
					}
					if !got.MultisetEqual(truth[q]) {
						diverged = true
					}
				}
				if !diverged {
					t.Error("pruned answers matched ground truth on the dirty instance; corruption is not observable")
				}
			}

			// 2. The audit pinpoints every injected violation.
			rep, err := xmlsql.Audit(ctx, db, s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() {
				t.Fatal("audit reported the dirty instance clean")
			}
			for _, want := range expected {
				found := false
				for _, v := range rep.ByProperty(want.property) {
					if v.Relation == want.relation {
						found = true
					}
				}
				if !found {
					t.Errorf("audit missed a %s violation on %s:\n%s", want.property, want.relation, rep)
				}
			}

			// 3. An audited planner serves safe-mode plans that match the
			// ground truth for every workload query.
			p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: db})
			if _, err := p.Audit(ctx); err != nil {
				t.Fatal(err)
			}
			if p.TrustState() != xmlsql.TrustViolated {
				t.Fatalf("planner trust after audit = %v", p.TrustState())
			}
			for _, q := range sc.queries {
				res, err := p.Exec(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if !res.MultisetEqual(truth[q]) {
					t.Errorf("%s: safe-mode answer diverges from ground truth:\n%s", q, truth[q].MultisetDiff(res))
				}
			}
			if st := p.Stats(); st.SafeModeServes != int64(len(sc.queries)) {
				t.Errorf("SafeModeServes = %d, want %d", st.SafeModeServes, len(sc.queries))
			}
		})
	}
}

// TestCorruptionCleanControl is the control arm: on fault-free instances the
// audit comes back clean, the planner stays on pruned plans, and nothing
// degrades.
func TestCorruptionCleanControl(t *testing.T) {
	ctx := context.Background()
	for _, sc := range corruptionScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := sc.schema
			staging := xmlsql.NewStore()
			if _, err := xmlsql.Shred(s, staging, sc.doc); err != nil {
				t.Fatal(err)
			}
			raw := fakedb.Open()
			db := xmlsql.NewDBBackend(raw, xmlsql.DialectSQLite)
			defer db.Close()
			if err := db.EnsureSchema(s); err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Exec(xmlsql.GenerateLoadScript(staging, xmlsql.DialectSQLite)); err != nil {
				t.Fatal(err)
			}
			p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: db})
			rep, err := p.Audit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() || p.TrustState() != xmlsql.TrustVerified {
				t.Fatalf("clean instance audited dirty (trust %v):\n%s", p.TrustState(), rep)
			}
			for _, q := range sc.queries {
				want, err := xmlsql.Eval(s, staging, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Exec(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !got.MultisetEqual(want) {
					t.Errorf("%s: verified serving diverges from pruned reference:\n%s", q, want.MultisetDiff(got))
				}
			}
			if st := p.Stats(); st.SafeModeServes != 0 {
				t.Errorf("clean instance degraded %d times", st.SafeModeServes)
			}
		})
	}
}
