package relational

import (
	"reflect"
	"testing"
)

// netChange folds a change list into added-minus-removed counts per row.
func netChange(c TableChange) map[string]int {
	net := map[string]int{}
	for _, r := range c.Added {
		net[r.Key()]++
	}
	for _, r := range c.Removed {
		net[r.Key()]--
	}
	for k, n := range net {
		if n == 0 {
			delete(net, k)
		}
	}
	return net
}

// TestTxChangesNetToTheDelta pins the change list a transaction exposes for
// delta-maintained state: per table, in first-write order, with removed and
// added rows that net to exactly post-state minus pre-state — including a
// row that is inserted, updated and deleted again inside the transaction —
// and a mutation count equal to how far the table's version moved. Rollback
// reads the same log and must still restore a byte-identical store.
func TestTxChangesNetToTheDelta(t *testing.T) {
	s := txStore(t)
	before := s.Dump()
	cv, tv := s.Table("C").Version(), s.Table("T").Version()
	isID := func(id int64) func(Row) bool { return func(r Row) bool { return r[0].Equal(Int(id)) } }

	tx := s.Begin()
	// C: one row lives and dies inside the transaction...
	if err := tx.Insert("C", Row{Int(14), Int(4), String("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere("C", isID(14), func(r Row) Row { r[2] = String("newer"); return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere("C", isID(14)); err != nil {
		t.Fatal(err)
	}
	// ...one existing row is rewritten, one is deleted, and a no-op leaves no trace.
	if _, err := tx.UpdateWhere("C", isID(11), func(r Row) Row { r[2] = String("c2"); return r }); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere("C", isID(13)); err != nil {
		t.Fatal(err)
	}
	if n, err := tx.DeleteWhere("C", isID(999)); err != nil || n != 0 {
		t.Fatalf("no-op delete: n=%d err=%v", n, err)
	}
	// T: a plain insert.
	if err := tx.Insert("T", Row{Int(5), Null, String("ttttt")}); err != nil {
		t.Fatal(err)
	}

	changes := tx.Changes()
	if len(changes) != 2 || changes[0].Table != "C" || changes[1].Table != "T" {
		t.Fatalf("changes = %+v, want tables [C T] in first-write order", changes)
	}
	c, tt := changes[0], changes[1]
	if c.Mutations != 5 || s.Table("C").Version() != cv+5 {
		t.Fatalf("C: %d mutations, version %d -> %d; want 5 and +5", c.Mutations, cv, s.Table("C").Version())
	}
	if tt.Mutations != 1 || s.Table("T").Version() != tv+1 {
		t.Fatalf("T: %d mutations, version %d -> %d; want 1 and +1", tt.Mutations, tv, s.Table("T").Version())
	}
	wantC := map[string]int{
		Row{Int(11), Int(1), String("c")}.Key():  -1,
		Row{Int(11), Int(1), String("c2")}.Key(): +1,
		Row{Int(13), Int(3), String("c")}.Key():  -1,
	}
	if got := netChange(c); !reflect.DeepEqual(got, wantC) {
		t.Fatalf("C nets to %v, want %v", got, wantC)
	}
	if got, want := netChange(tt), map[string]int{Row{Int(5), Null, String("ttttt")}.Key(): 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("T nets to %v, want %v", got, want)
	}

	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got := s.Dump(); got != before {
		t.Fatalf("rollback not byte-identical:\nwant:\n%s\ngot:\n%s", before, got)
	}
	if got := tx.Changes(); got != nil {
		t.Fatalf("a finished transaction still reports changes: %+v", got)
	}
}
