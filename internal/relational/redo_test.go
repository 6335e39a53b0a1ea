package relational

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRedoReproducesTheTransaction pins Store.Redo against live
// transactions: redoing each transaction's Log on a copy of the store it
// started from yields the committed store, row order and indexes included,
// on a table with a primary key and on one without (with duplicate rows).
// A removed row that is missing or differs from its image fails the redo
// with ErrBeforeImage.
func TestRedoReproducesTheTransaction(t *testing.T) {
	build := func() *Store {
		s, tb := dmlTable(t, 30)
		bag, err := s.CreateTable(&TableSchema{Name: "B", Columns: []Column{{Name: "w", Kind: KindString}, {Name: "n", Kind: KindInt}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tb.Len(); i++ {
			bag.MustInsert(Row{String([]string{"a", "b"}[i%2]), Int(int64(i % 3))})
		}
		return s
	}
	live, replica := build(), build()
	rng := rand.New(rand.NewSource(7))
	set := func(col int, v Value) func(Row) Row {
		return func(r Row) Row { r[col] = v; return r }
	}
	for step := 0; step < 200; step++ {
		tx := live.Begin()
		for j := 0; j < 1+rng.Intn(4); j++ {
			n := Int(int64(rng.Intn(3)))
			keys := []Value{Int(int64(rng.Intn(40))), Int(int64(rng.Intn(40)))}
			nOf := func(r Row) bool { return r[1] == n }
			var err error
			switch rng.Intn(7) {
			case 0:
				err = tx.Insert("T", Row{Int(int64(100 + 10*step + j)), n, String("i")})
			case 1:
				_, err = tx.DeleteKeys("T", keys, nil)
			case 2:
				_, err = tx.UpdateKeys("T", keys, nil, set(2, String(fmt.Sprint(step))))
			case 3:
				_, err = tx.UpdateKeys("T", keys[:1], nil, set(0, Int(int64(-10*step-j))))
			case 4:
				err = tx.Insert("B", Row{String("a"), n})
			case 5:
				_, err = tx.DeleteWhere("B", nOf)
			default:
				_, err = tx.UpdateWhere("B", nOf, set(0, String("c")))
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		log := tx.Log()
		tx.Commit()
		if err := replica.Redo(log); err != nil {
			t.Fatalf("step %d: redo: %v", step, err)
		}
		for _, name := range []string{"T", "B"} {
			if got, want := replica.Table(name).Rows(), live.Table(name).Rows(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: table %s redone to\n%v\nlive\n%v", step, name, got, want)
			}
		}
		checkIndexes(t, replica.Table("T"), fmt.Sprintf("step %d", step))
	}

	row := live.Table("T").Rows()[0]
	stale := row.Clone()
	stale[2] = String("stale")
	for i, c := range []TableChange{
		{Table: "T", Removed: []Row{stale}},
		{Table: "T", Removed: []Row{{Int(-1000), Null, Null}}},
		{Table: "T", Removed: []Row{stale}, Added: []Row{row}},
		{Table: "B", Removed: []Row{{String("absent"), Int(0)}}},
	} {
		if err := replica.Redo([]TableChange{c}); !errors.Is(err, ErrBeforeImage) {
			t.Errorf("change %d: redo error = %v, want ErrBeforeImage", i, err)
		}
	}
	if replica.Dump() != live.Dump() {
		t.Fatal("a redo that found none of its rows changed the store")
	}

	// Equal rows of the unkeyed table are interchangeable, but a change
	// replaces as many as it logged: undoing the insert of a duplicate
	// leaves the original.
	before := live.Dump()
	tx := live.Begin()
	if err := tx.Insert("B", live.Table("B").Rows()[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil || live.Dump() != before {
		t.Fatalf("rolling back a duplicate insert: %v", err)
	}
}
