package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// dmlTable is the fixture of the keyed-DML tests: n rows of (id, parentid,
// v) with the primary key on id and a hash index on parentid, ten children
// per parent.
func dmlTable(t testing.TB, n int) (*Store, *Table) {
	t.Helper()
	s := NewStore()
	tb, err := s.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		tb.MustInsert(Row{Int(int64(i)), Int(int64(i / 10)), String("v")})
	}
	if err := tb.BuildIndex("parentid"); err != nil {
		t.Fatal(err)
	}
	return s, tb
}

// checkIndexes fails unless the primary-key map and every hash index equal
// a build from scratch over the current rows: the same rows (by identity)
// under the same keys, buckets in table order.
func checkIndexes(t *testing.T, tb *Table, step string) {
	t.Helper()
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if len(tb.pkIndex) != len(tb.rows) {
		t.Fatalf("%s: primary-key index holds %d keys for %d rows", step, len(tb.pkIndex), len(tb.rows))
	}
	for _, r := range tb.rows {
		if got, ok := tb.pkIndex[r[tb.pk]]; !ok || &got[0] != &r[0] {
			t.Fatalf("%s: primary key %v does not map to its row", step, r[tb.pk])
		}
	}
	for col, idx := range tb.indexes {
		want := map[Value][]Row{}
		for _, r := range tb.rows {
			want[r[idx.col]] = append(want[r[idx.col]], r)
		}
		if len(idx.buckets) != len(want) {
			t.Fatalf("%s: index %s has %d buckets, a rebuild has %d", step, col, len(idx.buckets), len(want))
		}
		for k, w := range want {
			b := idx.buckets[k]
			if len(b) != len(w) {
				t.Fatalf("%s: index %s bucket %v holds %d rows, a rebuild %d", step, col, k, len(b), len(w))
			}
			for i := range w {
				if &b[i][0] != &w[i][0] {
					t.Fatalf("%s: index %s bucket %v differs from a rebuild at %d", step, col, k, i)
				}
			}
		}
	}
}

// refDump renders reference rows the way Store.Dump renders the fixture.
func refDump(t *testing.T, rows []Row) string {
	t.Helper()
	s := NewStore()
	tb, err := s.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		tb.MustInsert(r)
	}
	return s.Dump()
}

// TestIndexesEqualRebuild drives seeded random sequences of inserts, keyed
// and scanning deletes and updates (some moving the indexed column or the
// primary key, some failing on a duplicate key), and transactions that roll
// back or commit. After every step the indexes must equal a rebuild, in
// order, and the rows must equal a plain-slice reference model, in order
// outside rollbacks (an update keeps a row's position) and by Dump always.
func TestIndexesEqualRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, tb := dmlTable(t, 40)
		ref := append([]Row(nil), tb.Rows()...)
		nextID := int64(1000)
		// op applies one random mutation through tx (or straight to the
		// table when tx is nil) and mirrors it on ref when it succeeds.
		op := func(tx *StoreTx, step string) {
			parent := Int(int64(rng.Intn(6)))
			ks := make([]Value, 1+rng.Intn(3))
			for i := range ks {
				ks[i] = Int(int64(rng.Intn(60)))
			}
			keyed := rng.Intn(2) == 0
			notX := func(r Row) bool { return r[2] != String("x") }
			match := func(r Row) bool {
				if !keyed {
					return r[1] == parent
				}
				for _, k := range ks {
					if r[0] == k {
						return notX(r)
					}
				}
				return false
			}
			switch rng.Intn(6) {
			case 0: // insert, sometimes a duplicate key
				nextID++
				r := Row{Int(nextID), parent, String("i")}
				if rng.Intn(5) == 0 && len(ref) > 0 {
					r[0] = ref[rng.Intn(len(ref))][0]
				}
				var err error
				if tx != nil {
					err = tx.Insert("T", r)
				} else {
					err = tb.Insert(r)
				}
				if err == nil {
					ref = append(ref, r)
				}
			case 1, 2: // delete by keys or by scan
				switch {
				case tx == nil && keyed:
					tb.DeleteKeys(ks, notX)
				case tx == nil:
					tb.DeleteWhere(match)
				case keyed:
					tx.DeleteKeys("T", ks, notX)
				default:
					tx.DeleteWhere("T", match)
				}
				kept := []Row{}
				for _, r := range ref {
					if !match(r) {
						kept = append(kept, r)
					}
				}
				ref = kept
			default: // update v, parentid or the primary key
				what, to := rng.Intn(3), Int(int64(rng.Intn(60)))
				v := String([]string{"u", "x"}[rng.Intn(2)])
				fn := func(r Row) Row {
					switch what {
					case 0:
						r[2] = v
					case 1:
						r[1] = to
					default:
						r[0] = to
					}
					return r
				}
				var err error
				switch {
				case tx == nil && keyed:
					_, err = tb.UpdateKeys(ks, notX, fn)
				case tx == nil:
					_, err = tb.UpdateWhere(match, fn)
				case keyed:
					_, err = tx.UpdateKeys("T", ks, notX, fn)
				default:
					_, err = tx.UpdateWhere("T", match, fn)
				}
				if err == nil {
					next := make([]Row, len(ref))
					for i, r := range ref {
						if next[i] = r; match(r) {
							next[i] = fn(r.Clone())
						}
					}
					ref = next
				}
			}
			checkIndexes(t, tb, step)
			rows := tb.Rows()
			if len(rows) != len(ref) {
				t.Fatalf("%s: %d rows, reference %d", step, len(rows), len(ref))
			}
			for i := range rows {
				if rows[i].Key() != ref[i].Key() {
					t.Fatalf("%s: row %d is %v, reference %v", step, i, rows[i], ref[i])
				}
			}
			if got, want := s.Dump(), refDump(t, ref); got != want {
				t.Fatalf("%s: store\n%s\nreference\n%s", step, got, want)
			}
		}
		for i := 0; i < 60; i++ {
			step := fmt.Sprintf("seed %d step %d", seed, i)
			if rng.Intn(4) > 0 {
				op(nil, step)
				continue
			}
			before := s.Dump()
			tx := s.Begin()
			for j := 0; j < 1+rng.Intn(4); j++ {
				op(tx, fmt.Sprintf("%s tx op %d", step, j))
			}
			if rng.Intn(3) == 0 {
				tx.Commit()
				continue
			}
			if err := tx.Rollback(); err != nil {
				t.Fatalf("%s: rollback: %v", step, err)
			}
			checkIndexes(t, tb, step+" rollback")
			if got := s.Dump(); got != before {
				t.Fatalf("%s: rollback not byte-identical:\nwant\n%s\ngot\n%s", step, before, got)
			}
			// Undoing a delete re-appends the rows, so adopt the order.
			ref = append([]Row(nil), tb.Rows()...)
		}
	}
}

// TestRowsSnapshotSurvivesWrites pins the copy-on-write contract: a slice
// returned by Rows keeps its length and contents across a delete, an
// update and the inserts that follow them.
func TestRowsSnapshotSurvivesWrites(t *testing.T) {
	_, tb := dmlTable(t, 100)
	held := tb.Rows()
	want := make([]string, len(held))
	for i, r := range held {
		want[i] = r.Key()
	}
	if n := tb.DeleteKeys([]Value{Int(50)}, nil); n != 1 {
		t.Fatalf("DeleteKeys removed %d rows, want 1", n)
	}
	if n, err := tb.UpdateKeys([]Value{Int(7)}, nil, func(r Row) Row { r[2] = String("new"); return r }); n != 1 || err != nil {
		t.Fatalf("UpdateKeys: n=%d err=%v", n, err)
	}
	for i := 0; i < 3; i++ {
		tb.MustInsert(Row{Int(int64(200 + i)), Int(1), String("late")})
	}
	if len(held) != len(want) {
		t.Fatalf("held slice has %d rows, want %d", len(held), len(want))
	}
	for i, r := range held {
		if r.Key() != want[i] {
			t.Fatalf("held row %d became %v, want %s", i, r, want[i])
		}
	}
	if got := tb.Len(); got != 102 {
		t.Fatalf("table has %d rows, want 102", got)
	}
}

// TestAppendToHeldRowsDoesNotMeetInsert: Rows is clipped, so a holder's
// append and a later Insert each land in their own array.
func TestAppendToHeldRowsDoesNotMeetInsert(t *testing.T) {
	_, tb := dmlTable(t, 100)
	held := tb.Rows()
	if cap(held) != len(held) {
		t.Fatalf("Rows has len %d, cap %d", len(held), cap(held))
	}
	mine := append(held, Row{Int(-1), Int(1), String("mine")})
	tb.MustInsert(Row{Int(300), Int(1), String("stored")})
	if got := mine[len(held)][2]; got != String("mine") {
		t.Fatalf("the held slice's appended row became %v", mine[len(held)])
	}
	if got := tb.Rows()[len(held)][2]; got != String("stored") {
		t.Fatalf("the inserted row reads %v", tb.Rows()[len(held)])
	}
	if row, ok := tb.LookupPK(Int(-1)); ok {
		t.Fatalf("the holder's row reached the table: %v", row)
	}
}

// TestUpdateDuplicateKeyLeavesTableUntouched pins validation before any
// write: an update whose new primary key collides fails and changes
// nothing, while a swap of two keys in one update is accepted.
func TestUpdateDuplicateKeyLeavesTableUntouched(t *testing.T) {
	s, tb := dmlTable(t, 5)
	before := s.Dump()
	if _, err := tb.UpdateKeys([]Value{Int(1)}, nil, func(r Row) Row { r[0] = Int(2); return r }); err == nil {
		t.Fatal("update onto an existing key succeeded")
	}
	if got := s.Dump(); got != before {
		t.Fatalf("failed update changed the table:\n%s", got)
	}
	swap := func(r Row) Row { r[0] = Int(3 - r[0].AsInt()); return r }
	if n, err := tb.UpdateKeys([]Value{Int(1), Int(2)}, nil, swap); n != 2 || err != nil {
		t.Fatalf("key swap: n=%d err=%v", n, err)
	}
	checkIndexes(t, tb, "swap")
}

// BenchmarkDeleteByID deletes one row by primary key from a 10k-row table
// with a parentid index and inserts it again.
func BenchmarkDeleteByID(b *testing.B) {
	_, tb := dmlTable(b, 10000)
	key := Int(5000)
	row, _ := tb.LookupPK(key)
	row = row.Clone()
	keys := []Value{key}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.DeleteKeys(keys, nil) != 1 {
			b.Fatal("row not deleted")
		}
		tb.MustInsert(row)
	}
}
