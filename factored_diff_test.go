package xmlsql_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/workloads"
)

// diffWorkload bundles a schema, a small instance, its query list, and the
// label alphabet fuzzed paths draw from.
type diffWorkload struct {
	name    string
	schema  *xmlsql.Schema
	doc     *xmlsql.Document
	queries []string
	labels  []string
}

func diffWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	xm := workloads.XMark()
	xmDoc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 8, CategoriesPerItem: 2, NumCategories: 10, Seed: 7,
	})
	xfEdge, err := xmlsql.EdgeMapping(workloads.XMarkFull())
	if err != nil {
		t.Fatal(err)
	}
	xfDoc := workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: 5, CategoriesPerItem: 2, NumCategories: 10, Seed: 7,
	})
	s2 := workloads.S2()
	s2Edge, err := xmlsql.EdgeMapping(s2)
	if err != nil {
		t.Fatal(err)
	}
	s2Doc := workloads.GenerateS2(10, 7)
	s3 := workloads.S3()
	s3Doc := workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 4, Seed: 7})
	xaEdge, err := xmlsql.EdgeMapping(workloads.XMarkAuctions())
	if err != nil {
		t.Fatal(err)
	}
	xaDoc := workloads.GenerateXMarkAuctions(workloads.XMarkAuctionsConfig{
		ItemsPerContinent: 4, People: 6, OpenAuctions: 6, BiddersPerAuction: 2, ClosedAuctions: 3, Seed: 7,
	})
	return []diffWorkload{
		{
			name: "xmark", schema: xm, doc: xmDoc,
			queries: []string{workloads.QueryQ1, workloads.QueryQ2, "//Item", "//InCategory/Category"},
			labels:  []string{"Site", "Regions", "Africa", "Asia", "Item", "name", "InCategory", "Category"},
		},
		{
			name: "xmarkfull-edge", schema: xfEdge, doc: xfDoc,
			queries: []string{workloads.QueryQ8, "//Item/name", "//InCategory"},
			labels:  []string{"Site", "Regions", "Europe", "Item", "name", "InCategory", "Category"},
		},
		{
			name: "s2", schema: s2, doc: s2Doc,
			queries: []string{"//s/t1", "//t2"},
			labels:  []string{"root", "m1", "m2", "m3", "s", "t1", "t2"},
		},
		{
			name: "s2-edge", schema: s2Edge, doc: s2Doc,
			queries: []string{"//s/t1", "//t2"},
			labels:  []string{"root", "m1", "m2", "m3", "s", "t1", "t2"},
		},
		{
			name: "s3", schema: s3, doc: s3Doc,
			queries: []string{workloads.QueryQ4, workloads.QueryQ5},
			labels:  []string{"E0", "E1", "E6", "E10", "elemid"},
		},
		{
			name: "xmarkauctions-edge", schema: xaEdge, doc: xaDoc,
			queries: []string{"//ItemRef", "//name", "//Bidder/Increase"},
			labels:  []string{"Site", "OpenAuctions", "OpenAuction", "ItemRef", "Bidder", "Increase", "People", "Person", "Name"},
		},
	}
}

// fuzzPaths derives seeded pseudo-random path expressions from a label
// alphabet: 1–3 steps, each prefixed by / or //.
func fuzzPaths(labels []string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var b strings.Builder
		steps := 1 + rng.Intn(3)
		for s := 0; s < steps; s++ {
			if s == 0 || rng.Intn(2) == 0 {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
			b.WriteString(labels[rng.Intn(len(labels))])
		}
		out = append(out, b.String())
	}
	return out
}

// TestFactoredDifferential checks, for every workload query plus fuzzed
// paths, that the factored translation is multiset-equivalent to the
// unfactored one — on the in-memory engine and through the fakedb
// database/sql route (render → parse → execute).
func TestFactoredDifferential(t *testing.T) {
	ctx := context.Background()
	for _, w := range diffWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			store := xmlsql.NewStore()
			if _, err := xmlsql.Shred(w.schema, store, w.doc); err != nil {
				t.Fatal(err)
			}
			db := xmlsql.NewDBBackend(fakedb.Open(), xmlsql.DialectSQLite)
			defer db.Close()
			if err := db.EnsureSchema(w.schema); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Load(w.schema, w.doc); err != nil {
				t.Fatal(err)
			}

			queries := append([]string(nil), w.queries...)
			queries = append(queries, fuzzPaths(w.labels, 12, 42)...)
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
				factored, changed := xmlsql.FactorSharedPrefixes(w.schema, naive)
				want, err := xmlsql.Execute(ctx, store, naive, xmlsql.ExecuteOptions{})
				if err != nil {
					t.Fatalf("%s: unfactored execution: %v", qs, err)
				}
				got, err := xmlsql.Execute(ctx, store, factored, xmlsql.ExecuteOptions{})
				if err != nil {
					t.Fatalf("%s: factored execution: %v\n%s", qs, err, factored.SQL())
				}
				if !want.MultisetEqual(got) {
					t.Fatalf("%s (rewritten=%v): factored differs:\n%s\nfactored SQL:\n%s",
						qs, changed, want.MultisetDiff(got), factored.SQL())
				}
				// The factored SQL must survive rendering into a dialect,
				// the fake driver's parser, and its executor. A path with no
				// schema match translates to an empty statement, which
				// database/sql backends reject — nothing to compare there.
				if len(factored.Selects) == 0 {
					tested++
					continue
				}
				dbRes, err := db.Execute(ctx, factored)
				if err != nil {
					t.Fatalf("%s: fakedb execution: %v\n%s", qs, err, factored.SQLFor(xmlsql.DialectSQLite))
				}
				if !want.MultisetEqual(dbRes) {
					t.Fatalf("%s: fakedb differs (rewritten=%v):\n%s", qs, changed, want.MultisetDiff(dbRes))
				}
				tested++
			}
			if tested < len(w.queries) {
				t.Fatalf("only %d of %d fixed queries ran", tested, len(w.queries))
			}
		})
	}
}

// TestSafeModePlansFactored checks the factoring policy on served
// baselines: a safe-mode plan is the baseline with the shared-prefix rewrite
// applied, it answers exactly as the unfactored baseline does, and flipping
// the trust state back and forth re-serves each mode's own cached plan.
func TestSafeModePlansFactored(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 5, CategoriesPerItem: 2, NumCategories: 10, Seed: 3,
	})
	query := workloads.QueryQ1
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	naive, err := xmlsql.TranslateNaive(s, xmlsql.MustParseQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	factored, changed := xmlsql.FactorSharedPrefixes(s, naive)
	if !changed {
		t.Fatalf("%s: the baseline has nothing to factor", query)
	}
	want, err := xmlsql.Execute(ctx, store, naive, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})
	p.SetTrustState(xmlsql.TrustViolated)
	ex, err := p.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if d := ex.Decision; d.UsePruned || !d.Factored || d.Reason != "safe mode" {
		t.Fatalf("safe-mode decision %s (reason %q), want a factored baseline", d.KnobKey(), d.Reason)
	}
	if got := ex.Plan.Query.SQL(); got != factored.SQL() {
		t.Fatalf("safe-mode plan is not the factored baseline:\n%s\nwant\n%s", got, factored.SQL())
	}
	got, err := p.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if !want.MultisetEqual(got) {
		t.Fatalf("factored safe-mode serving differs:\n%s", want.MultisetDiff(got))
	}

	// Flipping the trust state back and forth re-serves each mode's own plan.
	p.SetTrustState(xmlsql.TrustVerified)
	if ex, err := p.Explain(ctx, query); err != nil {
		t.Fatal(err)
	} else if !ex.Decision.UsePruned || ex.Decision.Factored {
		t.Fatalf("trusted decision %s, want the unfactored pruned plan", ex.Decision.KnobKey())
	}
	if got, err := p.Exec(ctx, query); err != nil {
		t.Fatal(err)
	} else if !want.MultisetEqual(got) {
		t.Fatalf("trusted serving differs:\n%s", want.MultisetDiff(got))
	}
	p.SetTrustState(xmlsql.TrustViolated)
	again, err := p.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if !want.MultisetEqual(again) {
		t.Fatalf("mode flip corrupted cached plans:\n%s", want.MultisetDiff(again))
	}
}
