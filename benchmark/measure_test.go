package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// quantileOf must not reorder its argument.
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 || xs[0] != 3 {
		t.Errorf("median = %v (xs now %v), want 2 and xs untouched", got, xs)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	// A class without samples (0) is left out, not multiplied in.
	if got := geomean([]float64{4, 0, 9}); !near(got, 6) {
		t.Errorf("geomean(4, 0, 9) = %v, want 6", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSummarizeIsMedianOfWindows(t *testing.T) {
	s := summarize([]float64{5, 1, 9, 3, 100})
	if s.Median != 5 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summarize = %+v, want median 5, min 1, max 100", s)
	}
	// Quartiles of 1 3 5 9 100 are 3 and 9: the outlier does not count.
	if got := windowSpread([]float64{5, 1, 9, 3, 100}); !near(got, 6.0/5) {
		t.Errorf("window spread = %v, want 1.2", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1000); v <= 100000; v += 1000 { // 1 us .. 100 us, evenly
		h.add(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50500}, {0.99, 99010}, {0, 1000}} {
		got := h.quantile(c.q)
		if math.Abs(got-c.want)/c.want > 0.016 {
			t.Errorf("quantile(%v) = %v ns, want %v within a bucket's 1.6 %%", c.q, got, c.want)
		}
	}
	// Out-of-range values land in the first and the last bucket.
	var edge hist
	edge.add(1)
	edge.add(1 << 40)
	if edge.n != 2 || edge.counts[0] != 1 || edge.counts[len(edge.counts)-1] != 1 {
		t.Errorf("clamping: n=%d first=%d last=%d", edge.n, edge.counts[0], edge.counts[len(edge.counts)-1])
	}
	var sum hist
	sum.merge(&h)
	sum.merge(&edge)
	if sum.n != h.n+2 {
		t.Errorf("merged n = %d, want %d", sum.n, h.n+2)
	}
}

func TestClassQuantilesCombinesByGeomean(t *testing.T) {
	var fast, slow, empty hist
	for i := 0; i < 100; i++ {
		fast.add(1024) // about 1 us
	}
	for i := 0; i < 20; i++ {
		slow.add(102400) // about 100 us
	}
	us, beyond := classQuantiles([]*hist{&fast, &slow, &empty}, 0.5)
	if math.Abs(us-10.24)/10.24 > 0.016 {
		t.Errorf("combined p50 = %v us, want 10.24 (geomean of 1.024 and 102.4)", us)
	}
	if beyond != 10 {
		t.Errorf("fewest samples beyond p50 = %d, want 10 (the slow class)", beyond)
	}
}

func TestLoopResultWindows(t *testing.T) {
	r := newLoopResult(2, 1e9, 2, false)
	for _, ns := range []int64{1000, 2000, 3000} {
		r.lat[0][0].add(ns)
	}
	r.lat[0][1].add(9000)
	r.lat[1][0].add(5000)
	if ops := r.opsPerSecond(); ops[0] != 4 || ops[1] != 1 {
		t.Errorf("ops per second = %v, want [4 1]", ops)
	}
	p50, _ := r.latency(0.5, func(c int) bool { return c == 0 })
	if math.Abs(p50[0]-2) > 0.05 || math.Abs(p50[1]-5) > 0.08 {
		t.Errorf("class 0 p50 per window = %v us, want about [2 5]", p50)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) metric {
		return metric{Value: v, Windows: []float64{v * 0.99, v, v, v, v * 1.01}}
	}
	if v, _ := judge(d, steady(100), steady(95)); v != "ok" {
		t.Errorf("5%% fewer ops: %s, want ok", v)
	}
	if v, _ := judge(d, steady(100), steady(80)); v != "regressed" {
		t.Errorf("20%% fewer ops: %s, want regressed", v)
	}
	if v, _ := judge(d, steady(100), metric{Value: 80, Windows: []float64{60, 70, 80, 90, 100}}); v != "unresolved" {
		t.Errorf("windows spread 25%%: %s, want unresolved", v)
	}
	lower := metricDef{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	if v, _ := judge(lower, steady(100), steady(120)); v != "regressed" {
		t.Errorf("20%% slower: %s, want regressed", v)
	}
}
