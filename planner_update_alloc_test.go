//go:build !race

package xmlsql_test

import "testing"

// TestPlannerUpdateAllocs bounds the allocations of one insert+delete pair
// on the mixed-rw-shaped instance (BenchmarkPlannerUpdate's). Resolving the
// targets with one unpruned SELECT per schema path and rebuilding the
// auditor's tables on every audit took about 2040; resolving them with the
// served plan and compiling the auditor once per schema took about 1010;
// taking that plan from the planner's cache, bound to the path's literals
// instead of translated per write, takes about 336. The bound is 10 % above.
func TestPlannerUpdateAllocs(t *testing.T) {
	p := updateFixture(t)
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		updatePair(t, p, k)
		k++
	})
	t.Logf("%.0f allocations per pair", allocs)
	if allocs > 370 {
		t.Errorf("one insert+delete pair allocates %.0f times, want at most 370", allocs)
	}
}
