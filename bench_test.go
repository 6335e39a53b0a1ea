package xmlsql_test

import (
	"context"
	"fmt"
	"testing"

	"xmlsql"
	"xmlsql/internal/docgen"
	"xmlsql/internal/workloads"
)

// The benchmark suite regenerates every experiment of DESIGN.md as
// testing.B benchmarks: each experiment compares the baseline translation
// of [9] (sub-benchmark "naive") against the lossless-constraint-aware
// translation ("pruned") on the same shredded instance. `go test -bench=.`
// prints the per-query numbers; cmd/benchrunner prints them as the
// EXPERIMENTS.md tables with verification.

type fixture struct {
	schema *xmlsql.Schema
	store  *xmlsql.Store
}

func buildFixture(b *testing.B, s *xmlsql.Schema, doc *xmlsql.Document) *fixture {
	b.Helper()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		b.Fatal(err)
	}
	return &fixture{schema: s, store: store}
}

func (f *fixture) run(b *testing.B, query string) {
	b.Helper()
	q := xmlsql.MustParseQuery(query)
	naive, err := xmlsql.TranslateNaive(f.schema, q)
	if err != nil {
		b.Fatal(err)
	}
	pruned, err := xmlsql.Translate(f.schema, q)
	if err != nil {
		b.Fatal(err)
	}
	// Sanity before measuring.
	nres, err := xmlsql.Execute(context.Background(), f.store, naive, xmlsql.ExecuteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pres, err := xmlsql.Execute(context.Background(), f.store, pruned.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if !nres.MultisetEqual(pres) {
		b.Fatalf("%s: translations disagree", query)
	}

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmlsql.Execute(context.Background(), f.store, naive, xmlsql.ExecuteOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmlsql.Execute(context.Background(), f.store, pruned.Query, xmlsql.ExecuteOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func xmarkFixture(b *testing.B) *fixture {
	return buildFixture(b, workloads.XMark(), workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 200, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	}))
}

// E1: §2 Q1 — SQ1^1 (union of six 2-join queries) vs SQ1^2 (scan).
func BenchmarkE1_Q1(b *testing.B) { xmarkFixture(b).run(b, workloads.QueryQ1) }

// E2: §4.1 Q2 — root-to-leaf chain vs 1-join suffix.
func BenchmarkE2_Q2(b *testing.B) { xmarkFixture(b).run(b, workloads.QueryQ2) }

// E3: Figure 5 Q3 — the duplicate-avoiding SQ3^2 on S1.
func BenchmarkE3_Q3(b *testing.B) {
	f := buildFixture(b, workloads.S1(), workloads.GenerateS1(300, 1))
	f.run(b, workloads.QueryQ3)
}

// E4: Figure 6 — the DAG mapping with shared subtrees.
func BenchmarkE4_DAG_T1(b *testing.B) {
	f := buildFixture(b, workloads.S2(), workloads.GenerateS2(200, 1))
	f.run(b, "//s/t1")
}

func BenchmarkE4_DAG_T2(b *testing.B) {
	f := buildFixture(b, workloads.S2(), workloads.GenerateS2(200, 1))
	f.run(b, "//t2")
}

func s3Fixture(b *testing.B) *fixture {
	return buildFixture(b, workloads.S3(), workloads.GenerateS3(workloads.S3Config{
		Fanout: 3, MaxDepth: 6, Seed: 1,
	}))
}

// E5: Figure 7 — Q4 and Q5 over the recursive schema.
func BenchmarkE5_Q4(b *testing.B) { s3Fixture(b).run(b, workloads.QueryQ4) }
func BenchmarkE5_Q5(b *testing.B) { s3Fixture(b).run(b, workloads.QueryQ5) }

// E6: Figure 9 — Q6 and Q7, recursive baseline vs pruned.
func BenchmarkE6_Q6(b *testing.B) { s3Fixture(b).run(b, workloads.QueryQ6) }
func BenchmarkE6_Q7(b *testing.B) { s3Fixture(b).run(b, workloads.QueryQ7) }

// E7: §5.3 Q8 — schema-oblivious Edge storage.
func BenchmarkE7_Q8Edge(b *testing.B) {
	base := workloads.XMarkFull()
	es, err := xmlsql.EdgeMapping(base)
	if err != nil {
		b.Fatal(err)
	}
	f := buildFixture(b, es, workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: 100, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	}))
	f.run(b, workloads.QueryQ8)
}

// E8: the speedup-range suite over XMark and ADEX (stands in for the [10]
// evaluation the paper cites).
func BenchmarkE8_XMark(b *testing.B) {
	f := xmarkFixture(b)
	for _, q := range []string{
		"//Item/InCategory/Category",
		"//Item/name",
		"//Item",
		"/Site//InCategory/Category",
		"/Site/Regions/SouthAmerica/Item/name",
	} {
		b.Run(q, func(b *testing.B) { f.run(b, q) })
	}
}

func BenchmarkE8_ADEX(b *testing.B) {
	f := buildFixture(b, workloads.ADEX(), workloads.GenerateADEX(workloads.ADEXConfig{
		AdsPerSection: 300, Seed: 1,
	}))
	for _, q := range []string{
		workloads.QueryAdexAllPhones,
		workloads.QueryAdexAllTitles,
		workloads.QueryAdexVehicleEmails,
		workloads.QueryAdexPrices,
	} {
		b.Run(q, func(b *testing.B) { f.run(b, q) })
	}
}

// Translation cost itself (not execution): the pruning algorithm must stay
// cheap relative to the queries it optimizes.
func BenchmarkTranslateQ1Pruned(b *testing.B) {
	s := workloads.XMark()
	q := xmlsql.MustParseQuery(workloads.QueryQ1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlsql.Translate(s, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateQ7Pruned(b *testing.B) {
	s := workloads.S3()
	q := xmlsql.MustParseQuery(workloads.QueryQ7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmlsql.Translate(s, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateCold is the plan-cache miss without execution: parse,
// PathId and the pruning translator over a fixed mix of 32 docgen
// expressions on each of the six mappings of the benchmark's cold-adhoc
// workload (xmark, xmarkfull, adex, s3, the Edge mapping of xmarkfull,
// xmarkauctions). One op translates one expression of the mix.
func BenchmarkTranslateCold(b *testing.B) {
	edge, err := xmlsql.EdgeMapping(workloads.XMarkFull())
	if err != nil {
		b.Fatal(err)
	}
	type expr struct {
		s    *xmlsql.Schema
		text string
	}
	var mix []expr
	for k, s := range []*xmlsql.Schema{workloads.XMark(), workloads.XMarkFull(), workloads.ADEX(),
		workloads.S3(), edge, workloads.XMarkAuctions()} {
		g := docgen.New(int64(64+k), docgen.DefaultConfig())
		for i, n := 0, 0; i < 400 && n < 32; i++ {
			text := g.Query(s)
			if i%2 == 1 {
				text = g.PredQuery(s)
			}
			q, err := xmlsql.ParseQuery(text)
			if err != nil {
				continue
			}
			if _, err := xmlsql.Translate(s, q); err == nil {
				mix = append(mix, expr{s, text})
				n++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := mix[i%len(mix)]
		q, err := xmlsql.ParseQuery(e.text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xmlsql.Translate(e.s, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving fast path: the plan cache. Hot = repeated Planner.Eval (parse and
// translation amortized to a cache hit); Cold = the uncached
// translate+execute path on the same query and store. The recursive S3
// schema's Q4 is the headline case: pruning a recursive mapping is the most
// expensive translation (conflicts are walked over the recursive product) while
// its pruned SQL (R6 ⋈ R10) is among the cheapest to execute, which is
// exactly the regime the paper's contribution creates — and where a plan
// cache pays off most.
func plannerFixtureS3(b *testing.B) (*xmlsql.Schema, *xmlsql.Store) {
	b.Helper()
	s := workloads.S3()
	store := xmlsql.NewStore()
	doc := workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 5, Seed: 1})
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		b.Fatal(err)
	}
	return s, store
}

func BenchmarkPlannerHot(b *testing.B) {
	s, store := plannerFixtureS3(b)
	p := xmlsql.NewPlanner(s)
	if _, err := evalPlan(p, store, workloads.QueryQ4, xmlsql.ExecuteOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalPlan(p, store, workloads.QueryQ4, xmlsql.ExecuteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerCold(b *testing.B) {
	s, store := plannerFixtureS3(b)
	for i := 0; i < b.N; i++ {
		if _, err := xmlsql.Eval(s, store, workloads.QueryQ4); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate throughput: shredding.
func BenchmarkShredXMark(b *testing.B) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 100, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := xmlsql.NewStore()
		if _, err := xmlsql.Shred(s, store, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// updateFixture is the mixed-rw benchmark's tenant without the log: ten
// default xmark documents, the first with one more item per continent, on a
// volatile in-memory backend behind a planner. Item item-Af-20 occurs in the
// first document only; the pairs insert under it.
func updateFixture(tb testing.TB) *xmlsql.Planner {
	tb.Helper()
	s := workloads.XMark()
	docs := workloads.GenerateXMarkScale(workloads.DefaultXMarkConfig(), 10)
	big := workloads.DefaultXMarkConfig()
	big.ItemsPerContinent++
	docs[0] = workloads.GenerateXMark(big)
	mem := xmlsql.NewMemBackend()
	if err := mem.EnsureSchema(s); err != nil {
		tb.Fatal(err)
	}
	if _, err := mem.Load(s, docs...); err != nil {
		tb.Fatal(err)
	}
	return xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: mem, Translate: xmlsql.TranslateOptions{Adaptive: true}})
}

// updatePair inserts an InCategory with a fresh category under item-Af-20,
// then deletes it by that category: the two batches a mixed-rw client
// alternates.
func updatePair(tb testing.TB, p *xmlsql.Planner, k int) {
	value := fmt.Sprintf("pair-%d", k)
	for _, m := range []xmlsql.UpdateMutation{
		{Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-20']",
			XML: "<InCategory><Category>" + value + "</Category></InCategory>"},
		{Op: xmlsql.UpdateDelete, Path: "//Item/InCategory[Category='" + value + "']"},
	} {
		res, err := p.Update(context.Background(), xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{m}})
		if err != nil {
			tb.Fatal(err)
		}
		if res.Stmts != 1 {
			tb.Fatalf("%s %s: %d statements, want 1", m.Op, m.Path, res.Stmts)
		}
	}
}

// BenchmarkPlannerHotLiteral serves one literal-bearing read again and
// again, after another text of its shape has made the shape's cached
// template: a hot read that differs from another only in its literal.
func BenchmarkPlannerHotLiteral(b *testing.B) {
	p := updateFixture(b)
	ctx := context.Background()
	for _, q := range []string{"//Item[name='item-Af-19']/InCategory/Category", "//Item[name='item-Af-20']/InCategory/Category"} {
		if _, err := p.Exec(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(ctx, "//Item[name='item-Af-20']/InCategory/Category"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerUpdate times one insert+delete pair through
// Planner.Update on the mixed-rw-shaped instance.
func BenchmarkPlannerUpdate(b *testing.B) {
	p := updateFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updatePair(b, p, i)
	}
}
