package xmlsql_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/relational"
	"xmlsql/internal/workloads"
)

// TestPlannerAdaptiveDifferential checks that cost-based adaptive serving is
// purely a performance decision: for every workload query plus fuzzed paths,
// an adaptive Planner (mem and fakedb backends, Exec and Eval routes) returns
// exactly the rows of the naive baseline translation and of a fixed-knob
// Planner. Named TestPlanner* so CI's dedicated race run covers it.
func TestPlannerAdaptiveDifferential(t *testing.T) {
	ctx := context.Background()
	for _, w := range diffWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			store := xmlsql.NewStore()
			if _, err := xmlsql.Shred(w.schema, store, w.doc); err != nil {
				t.Fatal(err)
			}
			adaptive := xmlsql.NewPlannerWith(w.schema, xmlsql.PlannerConfig{
				Backend:   xmlsql.NewMemBackendOn(store),
				Translate: xmlsql.TranslateOptions{Adaptive: true},
			})
			fixed := xmlsql.NewPlannerWith(w.schema, xmlsql.PlannerConfig{
				Backend: xmlsql.NewMemBackendOn(store),
			})
			db := xmlsql.NewDBBackend(fakedb.Open(), xmlsql.DialectSQLite)
			defer db.Close()
			if err := db.EnsureSchema(w.schema); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Load(w.schema, w.doc); err != nil {
				t.Fatal(err)
			}
			adaptiveDB := xmlsql.NewPlannerWith(w.schema, xmlsql.PlannerConfig{
				Backend:   db,
				Translate: xmlsql.TranslateOptions{Adaptive: true},
			})

			queries := append([]string(nil), w.queries...)
			queries = append(queries, fuzzPaths(w.labels, 12, 99)...)
			tested := 0
			for _, qs := range queries {
				q, err := xmlsql.ParseQuery(qs)
				if err != nil {
					continue // fuzzed path the grammar rejects
				}
				naive, err := xmlsql.TranslateNaive(w.schema, q)
				if err != nil {
					continue // fuzzed path with no schema match
				}
				want, err := xmlsql.ExecuteWithOptions(store, naive, xmlsql.ExecuteOptions{Parallelism: 1, DisableMemo: true})
				if err != nil {
					t.Fatalf("%s: baseline execution: %v", qs, err)
				}
				got, err := adaptive.Exec(ctx, qs)
				if err != nil {
					t.Fatalf("%s: adaptive Exec: %v", qs, err)
				}
				if !want.MultisetEqual(got) {
					t.Fatalf("%s: adaptive Exec differs from baseline:\n%s", qs, want.MultisetDiff(got))
				}
				gotEval, err := adaptive.EvalContext(ctx, store, qs)
				if err != nil {
					t.Fatalf("%s: adaptive Eval: %v", qs, err)
				}
				if !want.MultisetEqual(gotEval) {
					t.Fatalf("%s: adaptive Eval differs from baseline:\n%s", qs, want.MultisetDiff(gotEval))
				}
				gotFixed, err := fixed.Exec(ctx, qs)
				if err != nil {
					t.Fatalf("%s: fixed Exec: %v", qs, err)
				}
				if !want.MultisetEqual(gotFixed) {
					t.Fatalf("%s: adaptive and fixed planners disagree:\n%s", qs, gotFixed.MultisetDiff(got))
				}
				// Empty translations render to empty statements, which
				// database/sql backends reject — nothing to serve there.
				if len(naive.Selects) > 0 {
					gotDB, err := adaptiveDB.Exec(ctx, qs)
					if err != nil {
						t.Fatalf("%s: adaptive fakedb Exec: %v", qs, err)
					}
					if !want.MultisetEqual(gotDB) {
						t.Fatalf("%s: adaptive fakedb differs from baseline:\n%s", qs, want.MultisetDiff(gotDB))
					}
				}
				tested++
			}
			if tested < len(w.queries) {
				t.Fatalf("only %d of %d fixed queries ran", tested, len(w.queries))
			}
			if got := adaptive.Stats().StatsCollects; got < 1 {
				t.Fatalf("adaptive planner never collected statistics (StatsCollects = %d)", got)
			}
		})
	}
}

// TestPlannerAdaptiveStaleness checks what a write that goes around the
// backend costs: the mutated table is noticed by its version and rescanned
// once (StatsCollects 1 -> 2), the snapshot fingerprint moves, the query's
// cache entry survives (no re-translation), and the answer is correct on the
// mutated data.
func TestPlannerAdaptiveStaleness(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 8, CategoriesPerItem: 2, NumCategories: 10, Seed: 11,
	})
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{
		Backend:   xmlsql.NewMemBackendOn(store),
		Translate: xmlsql.TranslateOptions{Adaptive: true},
	})
	query := workloads.QueryQ1

	ex1, err := p.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ctx, query); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(ctx, query); err != nil {
		t.Fatal(err)
	}
	st1 := p.Stats()
	if st1.StatsCollects != 1 {
		t.Fatalf("StatsCollects = %d after steady serving, want 1", st1.StatsCollects)
	}
	if st1.Hits == 0 {
		t.Fatalf("repeated Exec never hit the plan cache: %+v", st1)
	}

	// Delete a slice of the data the query touches.
	mutated := false
	for _, name := range store.TableNames() {
		tbl := store.Table(name)
		if tbl.Len() < 2 || !tbl.Schema().HasColumn("id") {
			continue
		}
		victim := tbl.Rows()[0][0]
		if n := tbl.DeleteWhere(func(r relational.Row) bool { return r[0].Equal(victim) }); n > 0 {
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no table to mutate")
	}

	ex2, err := p.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.StatsFingerprint == ex1.StatsFingerprint {
		t.Fatalf("fingerprint %s unchanged by DeleteWhere", ex1.StatsFingerprint)
	}
	st2 := p.Stats()
	if st2.StatsCollects != 2 {
		t.Fatalf("StatsCollects = %d after mutation, want 2", st2.StatsCollects)
	}
	if st2.Misses != st1.Misses {
		t.Fatalf("mutation forced a re-translation (misses %d -> %d)", st1.Misses, st2.Misses)
	}

	// The query answers correctly on the mutated store.
	q, err := xmlsql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := xmlsql.TranslateNaive(s, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := xmlsql.ExecuteWithOptions(store, naive, xmlsql.ExecuteOptions{Parallelism: 1, DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if !want.MultisetEqual(got) {
		t.Fatalf("post-mutation adaptive result differs:\n%s", want.MultisetDiff(got))
	}

	// An UpdateWhere flips the fingerprint again.
	for _, name := range store.TableNames() {
		tbl := store.Table(name)
		idx := tbl.Schema().ColumnIndex("category")
		if idx < 0 || tbl.Len() == 0 {
			continue
		}
		if _, err := tbl.UpdateWhere(
			func(r relational.Row) bool { return true },
			func(r relational.Row) relational.Row { r[idx] = relational.String("renamed"); return r },
		); err != nil {
			t.Fatal(err)
		}
		break
	}
	ex3, err := p.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if ex3.StatsFingerprint == ex2.StatsFingerprint {
		t.Fatalf("fingerprint %s unchanged by UpdateWhere", ex2.StatsFingerprint)
	}
}

// TestPlannerAdaptiveExplain checks Explain's report shape: a decision with
// estimates, a knob-vector cache key, and agreement with what Exec serves.
func TestPlannerAdaptiveExplain(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 8, CategoriesPerItem: 2, NumCategories: 10, Seed: 3,
	})
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{
		Backend:   xmlsql.NewMemBackendOn(store),
		Translate: xmlsql.TranslateOptions{Adaptive: true},
	})
	ex, err := p.Explain(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Decision == nil || ex.Decision.BaselineEst == nil || ex.Decision.ChosenEst == nil {
		t.Fatalf("explanation missing estimates: %+v", ex)
	}
	if ex.Decision.ChosenEst.Rows <= 0 || ex.Decision.ChosenEst.Cost <= 0 {
		t.Fatalf("degenerate chosen estimate: %+v", ex.Decision.ChosenEst)
	}
	if !strings.HasPrefix(ex.StatsFingerprint, "stats:") {
		t.Fatalf("fingerprint %q not stats-prefixed", ex.StatsFingerprint)
	}
	key := ex.Decision.KnobKey()
	for _, frag := range []string{"plan=", "factor=", "reorder="} {
		if !strings.Contains(key, frag) {
			t.Fatalf("knob key %q missing %q", key, frag)
		}
	}
	// Explain primed the cache: the following Exec serves without re-planning.
	misses := p.Stats().Misses
	if _, err := p.Exec(ctx, workloads.QueryQ1); err != nil {
		t.Fatal(err)
	}
	if after := p.Stats().Misses; after != misses {
		t.Fatalf("Exec after Explain re-planned (misses %d -> %d)", misses, after)
	}
}
