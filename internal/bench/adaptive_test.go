package bench_test

import (
	"testing"

	"xmlsql/internal/bench"
)

// TestAdaptiveServedWorkBounded is the plan rule's exact gate: on every
// E1–E8 headline case, the served plan scans, examines and materializes no
// more rows than any fixed configuration (the baseline and the pruned plan)
// at bound 0. Allocations are logged beside it, not gated.
func TestAdaptiveServedWorkBounded(t *testing.T) {
	cmps, err := bench.AdaptiveWork(bench.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	suites := map[string]int{}
	for _, c := range cmps {
		suites[c.Suite]++
		t.Logf("%-10s %-18s %-42s %-26s work %6d / baseline %6d   allocs %5.0f / %5.0f",
			c.Suite, c.Workload, c.Query, c.KnobKey, c.ServedWork, c.FixedWork["baseline"], c.ServedAllocs, c.BaselineAllocs)
	}
	if suites["headline"] != 35 || suites["sharedwork"] != 0 {
		t.Fatalf("cases per suite %v, want 35 headline and 0 sharedwork", suites)
	}
	for _, err := range bench.AdaptiveWorkGate(cmps) {
		t.Error(err)
	}
}
