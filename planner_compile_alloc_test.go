//go:build !race

package xmlsql_test

import (
	"context"
	"testing"

	"xmlsql"
	"xmlsql/internal/workloads"
)

// TestPlannerExecAllocs bounds the allocations of one hot Planner.Exec of
// the recursive Q7 on the hot-line s3 instance (12 answer rows). Analysing
// the SQL on every run, selects and recursive rounds alike, took 741; a
// plan compiled once per cached query takes 80.
func TestPlannerExecAllocs(t *testing.T) {
	ctx := context.Background()
	p, _ := s3Planner(t, xmlsql.NewMemBackend())
	if _, err := p.Exec(ctx, workloads.QueryQ7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Exec(ctx, workloads.QueryQ7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Exec", allocs)
	if allocs > 80 {
		t.Errorf("Planner.Exec of %s allocates %.0f times, want at most 80", workloads.QueryQ7, allocs)
	}
}
