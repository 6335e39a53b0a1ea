package xmlsql_test

import (
	"context"
	"sync"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/workloads"
)

// TestPlannerAdaptiveDifferential checks that the plan rule is purely a
// performance decision: for every workload query plus fuzzed paths, a
// Planner configured Adaptive (mem and fakedb backends, Exec and Plan
// routes) returns exactly the rows of the naive baseline translation and of
// a default Planner. Named TestPlanner* so CI's dedicated race run covers it.
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
				want, err := xmlsql.Execute(ctx, store, naive, xmlsql.ExecuteOptions{})
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
				tr, err := adaptive.Plan(qs)
				if err != nil {
					t.Fatalf("%s: adaptive Plan: %v", qs, err)
				}
				gotEval, err := xmlsql.Execute(ctx, store, tr.Query, xmlsql.ExecuteOptions{})
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
		})
	}
}

// TestPlannerAdaptiveExplain checks Explain's report shape: the rule's
// decision with its reason and knob vector, and a primed plan cache.
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
	if ex.Decision == nil || ex.Plan == nil || ex.Decision.Query != ex.Plan.Query {
		t.Fatalf("explanation does not describe its plan: %+v", ex)
	}
	if ex.Decision.Reason != "pruned" || !ex.Decision.UsePruned || ex.Plan.Fallback {
		t.Fatalf("Q1 on a trusted instance: reason %q, want the pruned plan", ex.Decision.Reason)
	}
	if key := ex.Decision.KnobKey(); key != "plan=pruned,factor=false" {
		t.Fatalf("knob key %q, want plan=pruned,factor=false", key)
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

// recordingBackend wraps a backend and remembers the SQL of the last query
// it executed.
type recordingBackend struct {
	xmlsql.Backend
	mu   sync.Mutex
	last string
}

func (b *recordingBackend) Execute(ctx context.Context, q *xmlsql.SQL) (*xmlsql.Result, error) {
	b.mu.Lock()
	b.last = q.SQL()
	b.mu.Unlock()
	return b.Backend.Execute(ctx, q)
}

// TestPlannerExplainMatchesExec checks that Explain describes the plan Exec
// serves: on default and Adaptive planners, on a trusted and on a violated
// instance, the explained SQL is the SQL the backend runs, and the reason
// names the trust state.
func TestPlannerExplainMatchesExec(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMarkAuctions()
	doc := workloads.GenerateXMarkAuctions(workloads.DefaultXMarkAuctionsConfig())
	queries := []string{"//Person[Name='person7']/EmailAddress", "//Item/InCategory/Category", "//Person/Name"}
	for _, adaptive := range []bool{false, true} {
		rec := &recordingBackend{Backend: xmlsql.NewMemBackend()}
		if err := rec.EnsureSchema(s); err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Load(s, doc); err != nil {
			t.Fatal(err)
		}
		p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{
			Backend:   rec,
			Translate: xmlsql.TranslateOptions{Adaptive: adaptive},
		})
		for _, trust := range []xmlsql.TrustState{xmlsql.TrustVerified, xmlsql.TrustViolated} {
			p.SetTrustState(trust)
			wantReason := "pruned"
			if trust == xmlsql.TrustViolated {
				wantReason = "safe mode"
			}
			for _, q := range queries {
				ex, err := p.Explain(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Exec(ctx, q); err != nil {
					t.Fatal(err)
				}
				if got := ex.Plan.Query.SQL(); got != rec.last {
					t.Errorf("adaptive=%v %s %q: Explain reports\n%s\nExec serves\n%s", adaptive, trust, q, got, rec.last)
				}
				if ex.Decision.Reason != wantReason {
					t.Errorf("adaptive=%v %s %q: reason %q, want %q", adaptive, trust, q, ex.Decision.Reason, wantReason)
				}
			}
		}
	}
}
