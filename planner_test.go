package xmlsql_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xmlsql"
	"xmlsql/internal/workloads"
)

// plannerFixture shreds a workload and returns the serial-engine reference
// result for each query.
func plannerFixture(t *testing.T, s *xmlsql.Schema, doc *xmlsql.Document, queries []string) (*xmlsql.Store, map[string]*xmlsql.Result) {
	t.Helper()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*xmlsql.Result, len(queries))
	for _, q := range queries {
		tr, err := xmlsql.Translate(s, xmlsql.MustParseQuery(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := xmlsql.Execute(context.Background(), store, tr.Query, xmlsql.ExecuteOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[q] = res
	}
	return store, want
}

// evalPlan runs query's cached plan against an explicit store: Plan, then
// Execute under opts.
func evalPlan(p *xmlsql.Planner, store *xmlsql.Store, query string, opts xmlsql.ExecuteOptions) (*xmlsql.Result, error) {
	tr, err := p.Plan(query)
	if err != nil {
		return nil, err
	}
	return xmlsql.Execute(context.Background(), store, tr.Query, opts)
}

// runConcurrentEval hammers one shared Planner and store from parallel
// goroutines and checks every result against the serial reference — rows and
// row order both. Run with -race.
func runConcurrentEval(t *testing.T, s *xmlsql.Schema, doc *xmlsql.Document, queries []string) {
	t.Helper()
	store, want := plannerFixture(t, s, doc, queries)
	p := xmlsql.NewPlanner(s)
	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := evalPlan(p, store, q, xmlsql.ExecuteOptions{})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, want[q].Rows) {
					errs <- fmt.Errorf("%s: concurrent Eval diverged from serial engine", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("stats account for %d lookups, want %d", st.Hits+st.Misses, goroutines*iters)
	}
	// Every query misses at most once per racing goroutine; with the hot
	// loop above, hits must dominate.
	if st.Hits < int64(goroutines*iters/2) {
		t.Fatalf("cache barely hit: %+v", st)
	}
	if st.Entries > len(queries) {
		t.Fatalf("%d cached plans for %d distinct queries", st.Entries, len(queries))
	}
}

func TestPlannerConcurrentEvalTree(t *testing.T) {
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 40, CategoriesPerItem: 2, NumCategories: 10, Seed: 1,
	})
	runConcurrentEval(t, workloads.XMark(), doc, []string{
		workloads.QueryQ1,
		workloads.QueryQ2,
		"//Item/name",
		"//Item",
		"/Site/Regions/SouthAmerica/Item/name",
	})
}

func TestPlannerConcurrentEvalRecursive(t *testing.T) {
	doc := workloads.GenerateS3(workloads.S3Config{Fanout: 3, MaxDepth: 5, Seed: 1})
	runConcurrentEval(t, workloads.S3(), doc, []string{
		workloads.QueryQ4,
		workloads.QueryQ5,
		workloads.QueryQ6,
		workloads.QueryQ7,
	})
}

func TestPlannerSchemaFingerprintInvalidation(t *testing.T) {
	xm := workloads.XMark()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(xm, store, workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 5, CategoriesPerItem: 1, NumCategories: 3, Seed: 1,
	})); err != nil {
		t.Fatal(err)
	}
	p := xmlsql.NewPlanner(xm)
	if _, err := evalPlan(p, store, workloads.QueryQ1, xmlsql.ExecuteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := evalPlan(p, store, workloads.QueryQ1, xmlsql.ExecuteOptions{}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Install the Edge mapping for the same document structure: same query
	// text, different fingerprint — the cached tree plan must not be served.
	es, err := xmlsql.EdgeMapping(workloads.XMarkFull())
	if err != nil {
		t.Fatal(err)
	}
	estore := xmlsql.NewStore()
	if _, err := xmlsql.Shred(es, estore, workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: 5, CategoriesPerItem: 1, NumCategories: 3, Seed: 1,
	})); err != nil {
		t.Fatal(err)
	}
	p.SetSchema(es)
	res, err := evalPlan(p, estore, workloads.QueryQ1, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := xmlsql.Translate(es, xmlsql.MustParseQuery(workloads.QueryQ1))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := xmlsql.Execute(context.Background(), estore, tr.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MultisetEqual(wantRes) {
		t.Fatal("planner served a stale plan after SetSchema")
	}
	st = p.Stats()
	if st.Misses != 2 {
		t.Fatalf("expected a fresh miss under the new fingerprint, got %+v", st)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want plans under both fingerprints", st.Entries)
	}
}

func TestPlannerTranslateOptionsKeyed(t *testing.T) {
	s3 := workloads.S3()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s3, store, workloads.GenerateS3(workloads.S3Config{
		Fanout: 2, MaxDepth: 4, Seed: 1,
	})); err != nil {
		t.Fatal(err)
	}
	// A planner with non-default translate options must serve correct
	// results from its cache just like the default planner; the Options
	// component of the cache key (exercised directly in the plancache tests)
	// keeps such plans from ever aliasing the default ones.
	abl := xmlsql.NewPlannerWith(s3, xmlsql.PlannerConfig{
		Translate: xmlsql.TranslateOptions{DisableEdgeAnnotOpt: true, Unroll: 4},
		Execute:   xmlsql.ExecuteOptions{DisableIndexes: true},
	})
	def := xmlsql.NewPlanner(s3)
	for i := 0; i < 2; i++ {
		got, err := evalPlan(abl, store, workloads.QueryQ7, xmlsql.ExecuteOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalPlan(def, store, workloads.QueryQ7, xmlsql.ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.MultisetEqual(want) {
			t.Fatal("ablation planner disagrees with default planner")
		}
	}
	st := abl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("ablation planner stats = %+v, want 1 hit / 1 miss", st)
	}
}
