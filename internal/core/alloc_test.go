//go:build !race

package core_test

import (
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/schema"
	"xmlsql/internal/workloads"
)

// TestTranslateAllocs bounds the allocations of one uncached translation,
// PathId plus the pruning translator, on the paper's queries and one
// predicate query. The bounds are about 10% above what integer-indexed
// products, map-free step graphs and the schema's compiled tables allocate;
// hashing struct keys and building maps per step took two to three times
// as many.
func TestTranslateAllocs(t *testing.T) {
	for _, c := range []struct {
		s     *schema.Schema
		query string
		max   float64
	}{
		{workloads.XMark(), workloads.QueryQ1, 280},
		{workloads.XMark(), workloads.QueryQ2, 220},
		{workloads.S3(), workloads.QueryQ4, 165},
		{workloads.S3(), workloads.QueryQ6, 165},
		{workloads.XMark(), "//Item[name='a b c']/InCategory/Category", 760},
	} {
		q := pathexpr.MustParse(c.query)
		n := testing.AllocsPerRun(20, func() {
			g, err := pathid.Build(c.s, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Translate(g); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.max {
			t.Errorf("%s: %.0f allocations per translation, want at most %.0f", c.query, n, c.max)
		}
	}
}
