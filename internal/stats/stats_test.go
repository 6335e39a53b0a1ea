package stats_test

import (
	"testing"

	"xmlsql/internal/relational"
	"xmlsql/internal/stats"
)

// handStore builds a two-table store with known row counts: parent has 4
// rows, child 7.
func handStore(t *testing.T) *relational.Store {
	t.Helper()
	store := relational.NewStore()
	parent, err := store.CreateTable(&relational.TableSchema{
		Name:       "parent",
		Columns:    []relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "name", Kind: relational.KindString}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "a"} {
		parent.MustInsert(relational.Row{relational.Int(int64(i + 1)), relational.String(name)})
	}
	child, err := store.CreateTable(&relational.TableSchema{
		Name: "child",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []int64{1, 1, 1, 2, 2, 3, 3} {
		child.MustInsert(relational.Row{relational.Int(int64(i + 1)), relational.Int(p)})
	}
	return store
}

// TestCollectExactness checks every collected row count against hand counts.
func TestCollectExactness(t *testing.T) {
	s := stats.CollectStore(handStore(t))
	if s.TotalRows != 11 {
		t.Fatalf("TotalRows = %d, want 11", s.TotalRows)
	}
	if got := s.Relations["parent"]; got != 4 {
		t.Fatalf("parent rows = %d, want 4", got)
	}
	if got := s.Relations["child"]; got != 7 {
		t.Fatalf("child rows = %d, want 7", got)
	}
	if got := s.Relations["absent"]; got != 0 {
		t.Fatalf("absent relation rows = %d, want 0", got)
	}
}

// TestCollectTracksMutations checks that a snapshot taken after a delete
// counts the rows that are left, and that the earlier snapshot is unchanged.
func TestCollectTracksMutations(t *testing.T) {
	store := handStore(t)
	before := stats.CollectStore(store)
	child := store.Table("child")
	if n := child.DeleteWhere(func(r relational.Row) bool { return r[1].Equal(relational.Int(3)) }); n != 2 {
		t.Fatalf("deleted %d rows, want 2", n)
	}
	after := stats.CollectStore(store)
	if after.Relations["child"] != 5 || after.TotalRows != 9 {
		t.Fatalf("after delete: child %d rows, %d total; want 5 and 9", after.Relations["child"], after.TotalRows)
	}
	if before.Relations["child"] != 7 {
		t.Fatalf("earlier snapshot moved to %d child rows", before.Relations["child"])
	}
}
