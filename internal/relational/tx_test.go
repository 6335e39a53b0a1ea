package relational

import (
	"strings"
	"testing"
)

// txStore builds a two-table store with a few rows and a hash index, the
// fixture for the StoreTx edge cases. Dump() is deterministic, so byte
// comparison of dumps is the correctness oracle throughout.
func txStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(&TableSchema{
		Name: "C",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "parentid", Kind: KindInt},
			{Name: "w", Kind: KindString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	tb := s.Table("T")
	for i := 1; i <= 4; i++ {
		tb.MustInsert(Row{Int(int64(i)), Null, String(strings.Repeat("t", i))})
	}
	c := s.Table("C")
	for i := 1; i <= 3; i++ {
		c.MustInsert(Row{Int(int64(10 + i)), Int(int64(i)), String("c")})
	}
	if err := c.BuildIndex("parentid"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTxEmptyBatchCommit pins the degenerate batch: a transaction that
// mutates nothing must commit (and roll back) to a byte-identical store,
// and a finished transaction must refuse further mutations.
func TestTxEmptyBatchCommit(t *testing.T) {
	s := txStore(t)
	before := s.Dump()

	tx := s.Begin()
	tx.Commit()
	if got := s.Dump(); got != before {
		t.Fatalf("empty commit changed the store:\n%s", got)
	}
	if err := tx.Insert("T", Row{Int(99), Null, String("late")}); err == nil {
		t.Fatal("insert after commit succeeded")
	}

	tx = s.Begin()
	if err := tx.Rollback(); err != nil {
		t.Fatalf("empty rollback: %v", err)
	}
	if got := s.Dump(); got != before {
		t.Fatalf("empty rollback changed the store:\n%s", got)
	}
	if _, err := tx.DeleteWhere("T", func(Row) bool { return true }); err == nil {
		t.Fatal("delete after rollback succeeded")
	}
}

// TestTxRollbackAfterRollback pins double-finish semantics: the second
// Rollback is a nil no-op that must not replay the undo log again (a replay
// would re-insert deleted rows twice or undo an already-undone update), and
// Rollback after Commit must not unwind committed work.
func TestTxRollbackAfterRollback(t *testing.T) {
	s := txStore(t)
	before := s.Dump()

	tx := s.Begin()
	if err := tx.Insert("T", Row{Int(5), Null, String("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere("C", func(r Row) bool { return r[0].Key() == Int(11).Key() }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("first rollback: %v", err)
	}
	after := s.Dump()
	if after != before {
		t.Fatalf("rollback did not restore the store:\nwant:\n%s\ngot:\n%s", before, after)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("second rollback: %v", err)
	}
	if got := s.Dump(); got != before {
		t.Fatalf("second rollback mutated the store:\n%s", got)
	}

	// Rollback after Commit keeps the committed mutation.
	tx = s.Begin()
	if err := tx.Insert("T", Row{Int(6), Null, String("kept")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	committed := s.Dump()
	if committed == before {
		t.Fatal("committed insert not visible")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after commit: %v", err)
	}
	if got := s.Dump(); got != committed {
		t.Fatalf("rollback after commit unwound committed work:\n%s", got)
	}
}

// TestTxRollbackAfterPartialReindex drives a batch through every mutation
// kind on an indexed table and rolls back midway through its logical work:
// each mutation rebuilt the hash index, so the rollback must restore not
// just the rows (byte-identical dump) but an index that still answers
// lookups for the restored contents.
func TestTxRollbackAfterPartialReindex(t *testing.T) {
	s := txStore(t)
	c := s.Table("C")
	before := s.Dump()

	tx := s.Begin()
	// Insert, update, and delete each trigger a reindex of C.parentid.
	if err := tx.Insert("C", Row{Int(14), Int(4), String("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.UpdateWhere("C",
		func(r Row) bool { return r[1].Key() == Int(2).Key() },
		func(r Row) Row { r[1] = Int(99); return r },
	); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteWhere("C", func(r Row) bool { return r[1].Key() == Int(3).Key() }); err != nil {
		t.Fatal(err)
	}
	// Mid-batch sanity: the index serves the mutated state.
	if rows := c.AppendLookup(nil, "parentid", Int(99)); !c.HasIndex("parentid") || len(rows) != 1 {
		t.Fatalf("mid-batch index lookup parentid=99: rows=%d", len(rows))
	}

	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got := s.Dump(); got != before {
		t.Fatalf("rollback after partial reindex not byte-identical:\nwant:\n%s\ngot:\n%s", before, got)
	}
	// The index must reflect the restored rows, not the rolled-back ones.
	for i := 1; i <= 3; i++ {
		if rows := c.AppendLookup(nil, "parentid", Int(int64(i))); len(rows) != 1 {
			t.Fatalf("post-rollback index lookup parentid=%d: rows=%d", i, len(rows))
		}
	}
	if rows := c.AppendLookup(nil, "parentid", Int(99)); len(rows) != 0 {
		t.Fatalf("post-rollback index still serves rolled-back key: %v", rows)
	}
	if rows := c.AppendLookup(nil, "parentid", Int(4)); len(rows) != 0 {
		t.Fatalf("post-rollback index still serves rolled-back insert: %v", rows)
	}
}

// TestTxUnknownTable pins the error path: a mutation against a missing
// table fails without poisoning the transaction's undo log.
func TestTxUnknownTable(t *testing.T) {
	s := txStore(t)
	before := s.Dump()
	tx := s.Begin()
	if err := tx.Insert("T", Row{Int(7), Null, String("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Nope", Row{Int(1)}); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got := s.Dump(); got != before {
		t.Fatalf("rollback after failed statement not byte-identical:\n%s", got)
	}
}
