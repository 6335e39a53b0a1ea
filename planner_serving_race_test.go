package xmlsql_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlsql"
)

// TestPlannerUpdateServingUnderWrites serves an Adaptive planner from four
// readers while two writers insert and delete through Planner.Update, and
// pins what writes may cost the readers: nothing. Every answer is the
// reference multiset plus at most each writer's one live element, and no
// cache entry is lost or duplicated: the writers add their two path shapes'
// entries and no more. Run it under -race.
func TestPlannerUpdateServingUnderWrites(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, func(cfg *xmlsql.PlannerConfig) {
		cfg.Translate.Adaptive = true
	})
	touched := []string{"//Item/InCategory/Category", "/Site/Regions/Africa/Item/InCategory/Category"}
	untouched := []string{"/Site", "//Item/name"}
	queries := append(append([]string(nil), touched...), untouched...)

	// multiset counts an answer's rows, leaving the writers' live values out
	// and reporting how many of them it saw.
	const writers = 2
	multiset := func(res *xmlsql.Result) (map[string]int, int) {
		m, live := map[string]int{}, 0
		for _, row := range res.Rows {
			if k := row.Key(); len(k) > 6 && k[:6] == "slive-" {
				live++
			} else {
				m[k]++
			}
		}
		return m, live
	}
	reference := map[string]map[string]int{}
	for _, q := range queries {
		res, err := p.Exec(ctx, q)
		if err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
		reference[q], _ = multiset(res)
	}
	st0 := p.Stats()
	if st0.Entries != len(queries) {
		t.Fatalf("after warm-up: %d entries; want %d", st0.Entries, len(queries))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var updates atomic.Int64
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			value := fmt.Sprintf("live-%d", w)
			batches := []xmlsql.UpdateBatch{
				{Muts: []xmlsql.UpdateMutation{{Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-0']",
					XML: "<InCategory><Category>" + value + "</Category></InCategory>"}}},
				{Muts: []xmlsql.UpdateMutation{{Op: xmlsql.UpdateDelete,
					Path: "//Item/InCategory[Category='" + value + "']"}}},
			}
			for i := 0; ; i++ {
				// Stop only after a delete, so the run ends on the reference instance.
				if i%2 == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				if _, err := p.Update(ctx, batches[i%2]); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				updates.Add(1)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				res, err := p.Exec(ctx, q)
				if err != nil {
					t.Errorf("reader %d %q: %v", r, q, err)
					return
				}
				got, live := multiset(res)
				maxLive := writers
				if i%len(queries) >= len(touched) {
					maxLive = 0
				}
				if live > maxLive || !sameMultiset(got, reference[q]) {
					t.Errorf("reader %d %q: %d live rows (max %d), rest equals reference: %v",
						r, q, live, maxLive, sameMultiset(got, reference[q]))
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, q := range queries {
		res, err := p.Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, live := multiset(res); live != 0 || !sameMultiset(got, reference[q]) {
			t.Fatalf("%q differs from the reference after the writers finished", q)
		}
	}
	st := p.Stats()
	n := updates.Load()
	t.Logf("%d updates, %d hits, %d misses", n, st.Hits, st.Misses)
	if n < 4 || st.Updates != n {
		t.Fatalf("%d updates applied, planner counted %d", n, st.Updates)
	}
	// The writers' paths resolve through the cache too: their two shapes
	// miss once each, whatever the literals, and nothing else misses.
	if st.Entries != len(queries)+2 || st.Misses != st0.Misses+2 {
		t.Fatalf("plan cache: %d entries, misses %d -> %d; want %d entries and two new misses",
			st.Entries, st0.Misses, st.Misses, len(queries)+2)
	}
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestPlannerAdaptiveExplainConcurrent asks eight goroutines to explain one
// query at once on a cold cache; under -race it pins that they all report
// the same served plan.
func TestPlannerAdaptiveExplainConcurrent(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, func(cfg *xmlsql.PlannerConfig) {
		cfg.Translate.Adaptive = true
	})
	sqls := make([]string, 8)
	var wg sync.WaitGroup
	for g := range sqls {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := p.Explain(ctx, "//Item/InCategory/Category")
			if err != nil {
				t.Error(err)
				return
			}
			sqls[g] = ex.Decision.KnobKey() + "\n" + ex.Plan.Query.SQL()
		}()
	}
	wg.Wait()
	for _, q := range sqls {
		if q == "" || q != sqls[0] {
			t.Fatalf("concurrent explanations of one query differ: %q", sqls)
		}
	}
}
