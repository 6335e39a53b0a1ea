package xmlsql_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
)

// s3Planner loads the hot-line s3 instance (the default S3 document) into
// b and serves it with a planner; it returns the shredding results too.
func s3Planner(t testing.TB, b xmlsql.Backend) (*xmlsql.Planner, []*xmlsql.ShredResult) {
	t.Helper()
	s := workloads.S3()
	if err := b.EnsureSchema(s); err != nil {
		t.Fatal(err)
	}
	res, err := b.Load(s, workloads.GenerateS3(workloads.DefaultS3Config()))
	if err != nil {
		t.Fatal(err)
	}
	return xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: b}), res
}

// compiledPlan returns the engine plan memoised on the query p serves now.
func compiledPlan(t *testing.T, p *xmlsql.Planner, query string) any {
	t.Helper()
	ex, err := p.Explain(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Plan.Query.Compiled()
}

// TestPlannerTrustFlipsKeepCompiledPlans flips the trust state verified →
// violated → verified → violated, serving the query after every flip. Each
// mode keeps its own cache entry, so no flip may cost a plan-cache miss or
// replace a compiled plan.
func TestPlannerTrustFlipsKeepCompiledPlans(t *testing.T) {
	ctx := context.Background()
	p, _ := s3Planner(t, xmlsql.NewMemBackend())
	query := workloads.QueryQ7
	plans := map[xmlsql.TrustState]any{}
	for _, st := range []xmlsql.TrustState{xmlsql.TrustVerified, xmlsql.TrustViolated} {
		p.SetTrustState(st)
		if _, err := p.Exec(ctx, query); err != nil {
			t.Fatal(err)
		}
		if plans[st] = compiledPlan(t, p, query); plans[st] == nil {
			t.Fatalf("%s: Exec memoised no compiled plan", st)
		}
	}
	misses := p.Stats().Misses
	for i, st := range []xmlsql.TrustState{xmlsql.TrustVerified, xmlsql.TrustViolated, xmlsql.TrustVerified, xmlsql.TrustViolated} {
		p.SetTrustState(st)
		if _, err := p.Exec(ctx, query); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().Misses; got != misses {
			t.Fatalf("flip %d to %s: plan-cache misses %d -> %d", i, st, misses, got)
		}
		if compiledPlan(t, p, query) != plans[st] {
			t.Fatalf("flip %d to %s: the compiled plan changed", i, st)
		}
	}
}

// TestPlannerCompiledPlanUnderWrites runs one cached plan of the recursive
// Q7 from eight goroutines, on a Mem tenant and on a 4-shard composite,
// while a writer inserts and deletes R10 rows under an R9 row of every
// store. An answer may hold the writer's live rows beside the reference;
// at quiescence both answers equal shred.EvalReferenceAll, the planners
// missed no plan, and the served query kept its SQL text and compiled plan.
// Run it under -race.
func TestPlannerCompiledPlanUnderWrites(t *testing.T) {
	ctx := context.Background()
	query := workloads.QueryQ7
	const liveBase = 1 << 40 // the writer's ids; the instance's are smaller
	mem := xmlsql.NewMemBackend()
	comp, err := xmlsql.NewShardedMemBackend(4, xmlsql.ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stores := []*xmlsql.Store{mem.Store()}
	for _, sh := range comp.Shards() {
		stores = append(stores, sh.(*backend.Mem).Store())
	}
	type tenant struct {
		p     *xmlsql.Planner
		want  map[int64]int
		sql   string
		plan  any
		stats xmlsql.PlannerStats
	}
	var tenants []*tenant
	for _, b := range []xmlsql.Backend{mem, comp} {
		p, res := s3Planner(t, b)
		vals, err := shred.EvalReferenceAll(res, xmlsql.MustParseQuery(query))
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{p: p, want: map[int64]int{}}
		for _, v := range vals {
			tn.want[v.AsInt()]++
		}
		if _, err := p.Exec(ctx, query); err != nil {
			t.Fatal(err)
		}
		tr, err := p.Plan(query)
		if err != nil {
			t.Fatal(err)
		}
		tn.sql, tn.plan, tn.stats = tr.Query.SQL(), tr.Query.Compiled(), p.Stats()
		tenants = append(tenants, tn)
	}
	// check compares an answer with the reference, allowing live rows.
	check := func(tn *tenant, res *xmlsql.Result, live bool) error {
		got := map[int64]int{}
		for _, row := range res.Rows {
			if id := row[0].AsInt(); !live || id < liveBase {
				got[id]++
			}
		}
		if len(got) != len(tn.want) {
			return fmt.Errorf("%d distinct ids, want %d", len(got), len(tn.want))
		}
		for id, n := range tn.want {
			if got[id] != n {
				return fmt.Errorf("id %d served %d times, want %d", id, got[id], n)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var writes atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for id := int64(liveBase); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			st := stores[int(id)%len(stores)]
			parents := st.Table("R9").Rows()
			if len(parents) == 0 {
				continue
			}
			r10 := st.Table("R10")
			row := make(relational.Row, len(r10.Schema().Columns))
			for i, c := range r10.Schema().Columns {
				switch c.Name {
				case "id":
					row[i] = relational.Int(id)
				case "parentid":
					row[i] = parents[int(id)%len(parents)][0]
				}
			}
			if err := r10.Insert(row); err != nil {
				t.Error(err)
				return
			}
			r10.DeleteKeys([]relational.Value{relational.Int(id)}, nil)
			writes.Add(1)
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 100; i++ {
				tn := tenants[(g+i)%len(tenants)]
				res, err := tn.p.Exec(ctx, query)
				if err == nil {
					err = check(tn, res, true)
				}
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if writes.Load() == 0 {
		t.Fatal("the writer wrote nothing")
	}
	for i, tn := range tenants {
		res, err := tn.p.Exec(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(tn, res, false); err != nil {
			t.Errorf("tenant %d at quiescence: %v", i, err)
		}
		tr, err := tn.p.Plan(query)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Query.SQL() != tn.sql || tr.Query.Compiled() != tn.plan {
			t.Errorf("tenant %d: the served query was edited or recompiled", i)
		}
		if st := tn.p.Stats(); st.Misses != tn.stats.Misses || st.Entries != tn.stats.Entries {
			t.Errorf("tenant %d: plan cache %+v, after warm-up %+v", i, st, tn.stats)
		}
	}
}
