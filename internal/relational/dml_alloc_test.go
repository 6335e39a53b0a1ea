//go:build !race

// The race detector instruments allocations, so the counts below hold only
// in a plain build.

package relational

import "testing"

// TestDeleteByIDAllocsIndependentOfSize pins that a keyed delete costs the
// rows it touches: deleting one row by id (and inserting it again, to keep
// the table's size) allocates as often at 10k rows as at 1k.
func TestDeleteByIDAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		_, tb := dmlTable(t, n)
		key := Int(int64(n / 2))
		row, _ := tb.LookupPK(key)
		row = row.Clone()
		keys := []Value{key}
		return testing.AllocsPerRun(50, func() {
			if tb.DeleteKeys(keys, nil) != 1 {
				t.Fatal("row not deleted")
			}
			tb.MustInsert(row)
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Fatalf("delete+insert by id allocates %.0f times at 1k rows and %.0f at 10k", small, large)
	}
	t.Logf("delete+insert by id: %.0f allocs at 1k and 10k rows", large)
}
