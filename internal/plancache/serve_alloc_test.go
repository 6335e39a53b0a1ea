//go:build !race

package plancache

import (
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/workloads"
)

// TestServeHitAllocs pins that a cache hit on a text without predicates,
// the hot serving path, allocates nothing: such a text is its own shape.
func TestServeHitAllocs(t *testing.T) {
	c, s := New(16), workloads.XMark()
	const text = "/Site/Regions/Africa/Item/name"
	if _, err := c.Serve(s, text, "", false, false, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Serve(s, text, "", false, false, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a hit allocates %.0f times", n)
	}
}
