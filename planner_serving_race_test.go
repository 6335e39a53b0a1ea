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

// TestPlannerUpdateServingUnderWrites serves an adaptive planner from four
// readers while two writers insert and delete through Planner.Update, and
// pins what writes may cost the readers: nothing but the chooser. Every
// answer is the reference multiset plus at most each writer's one live
// element, statistics are never rescanned (they follow the commits), no
// cache entry is lost or duplicated, and decisions are re-made only for the
// queries that read the written relation. Run it under -race.
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
	if st0.StatsCollects != 1 || st0.Entries != len(queries) {
		t.Fatalf("after warm-up: %d collects, %d entries; want 1 and %d", st0.StatsCollects, st0.Entries, len(queries))
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
	t.Logf("%d updates, %d decision refreshes, %d hits, %d misses", n, st.DecisionRefreshes, st.Hits, st.Misses)
	if n < 4 || st.Updates != n {
		t.Fatalf("%d updates applied, planner counted %d", n, st.Updates)
	}
	if st.StatsCollects != 1 {
		t.Fatalf("StatsCollects = %d after %d updates, want 1", st.StatsCollects, n)
	}
	if st.Entries != len(queries) || st.Misses != st0.Misses {
		t.Fatalf("plan cache: %d entries, misses %d -> %d; want %d entries and no new miss",
			st.Entries, st0.Misses, st.Misses, len(queries))
	}
	// One refresh per write per touched query, times the readers that can
	// notice the same write at once.
	if max := n * int64(len(touched)) * 4; st.DecisionRefreshes == 0 || st.DecisionRefreshes > max {
		t.Fatalf("DecisionRefreshes = %d, want 1..%d", st.DecisionRefreshes, max)
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

// TestPlannerAdaptiveExplainConcurrent shares one statistics snapshot among
// eight goroutines asking for its fingerprint at once; under -race it pins
// that the memoized Stats.Fingerprint is safe to call concurrently.
func TestPlannerAdaptiveExplainConcurrent(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, func(cfg *xmlsql.PlannerConfig) {
		cfg.Translate.Adaptive = true
	})
	fps := make([]string, 8)
	var wg sync.WaitGroup
	for g := range fps {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := p.Explain(ctx, "//Item/InCategory/Category")
			if err != nil {
				t.Error(err)
				return
			}
			fps[g] = ex.StatsFingerprint
		}()
	}
	wg.Wait()
	for _, fp := range fps {
		if fp == "" || fp != fps[0] {
			t.Fatalf("fingerprints of one snapshot differ: %q", fps)
		}
	}
}
