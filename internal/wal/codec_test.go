package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"xmlsql/internal/relational"
)

// codecStore is a small store with one keyed table and one without a
// primary key, the two ways Redo finds a row.
func codecStore(t testing.TB) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	item, err := s.CreateTable(&relational.TableSchema{Name: "Item", PrimaryKey: "id", Columns: []relational.Column{
		{Name: "id", Kind: relational.KindInt}, {Name: "parentid", Kind: relational.KindInt}, {Name: "name", Kind: relational.KindString}}})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := s.CreateTable(&relational.TableSchema{Name: "Loose", Columns: []relational.Column{
		{Name: "name", Kind: relational.KindString}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		item.MustInsert(relational.Row{relational.Int(i), relational.Int(0), relational.String("n")})
	}
	loose.MustInsert(relational.Row{relational.String("a")})
	loose.MustInsert(relational.Row{relational.String("a")})
	return s
}

// shapeLogs returns the change lists real transactions on codecStore record:
// one per mutation shape on each table, a batch that deletes a row it
// inserted, and an empty batch.
func shapeLogs(t testing.TB) [][]relational.TableChange {
	t.Helper()
	set := func(v string) func(relational.Row) relational.Row {
		return func(r relational.Row) relational.Row { r[len(r)-1] = relational.String(v); return r }
	}
	steps := []func(*relational.StoreTx) error{
		func(tx *relational.StoreTx) error {
			return tx.Insert("Item", relational.Row{relational.Int(9), relational.Null, relational.String("héllo\x00")})
		},
		func(tx *relational.StoreTx) error {
			_, err := tx.DeleteKeys("Item", []relational.Value{relational.Int(2), relational.Int(3)}, nil)
			return err
		},
		func(tx *relational.StoreTx) error {
			_, err := tx.UpdateKeys("Item", []relational.Value{relational.Int(1)}, nil, set(""))
			return err
		},
		func(tx *relational.StoreTx) error {
			_, err := tx.UpdateWhere("Loose", func(relational.Row) bool { return true }, set("b"))
			return err
		},
		func(tx *relational.StoreTx) error {
			_, err := tx.DeleteWhere("Loose", func(relational.Row) bool { return true })
			return err
		},
		func(tx *relational.StoreTx) error {
			if err := tx.Insert("Item", relational.Row{relational.Int(-1 << 62), relational.Int(4), relational.Null}); err != nil {
				return err
			}
			_, err := tx.DeleteKeys("Item", []relational.Value{relational.Int(-1 << 62), relational.Int(4)}, nil)
			return err
		},
	}
	var logs [][]relational.TableChange
	for _, step := range steps {
		s := codecStore(t)
		tx := s.Begin()
		if err := step(tx); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, tx.Log())
		tx.Commit()
	}
	return append(logs, nil)
}

// TestCodecRoundTrip pins that a change list decodes to what was encoded,
// for every mutation shape and for NULLs, extreme ints and arbitrary bytes,
// and that damaged bodies fail to decode instead of yielding rows.
func TestCodecRoundTrip(t *testing.T) {
	for i, changes := range shapeLogs(t) {
		got, err := decodeChanges(encodeChanges(changes))
		if err != nil {
			t.Fatalf("log %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, changes) {
			t.Errorf("log %d:\n got %v\nwant %v", i, got, changes)
		}
	}
	body := encodeChanges(shapeLogs(t)[0])
	for _, bad := range [][]byte{
		body[:len(body)-1],      // truncated
		append(body, 0),         // trailing byte
		{1, 0, 3, 2, 1, 1},      // two rows of three values in two bytes
		{1, 1, 'T', 1, 0, 1, 7}, // unknown value tag
	} {
		if got, err := decodeChanges(bad); err == nil {
			t.Errorf("decode % x succeeded: %v", bad, got)
		}
	}
}

// FuzzReplaySegment feeds arbitrary bytes to recovery after a valid base
// snapshot: once as a segment file (framing, torn tails, foreign kinds) and
// once as the body of a record whose checksum holds (decoding and redo).
// Open must return a store or an error, never panic, and decoding a body
// may allocate only in proportion to its length.
func FuzzReplaySegment(f *testing.F) {
	for i, changes := range shapeLogs(f) {
		body := encodeChanges(changes)
		f.Add(frameRecord(1, KindChanges, body))
		f.Add(body)
		if i == 0 {
			f.Add(frameRecord(1, 1, body))
		}
	}
	snap := frameSnapshot(encodeSnapshot(codecStore(f), 0))
	open := func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(0)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := Open(dir, Options{SnapshotEvery: -1})
		if err == nil {
			m.Close()
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		open(t, data)
		open(t, frameRecord(1, KindChanges, data))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeChanges(data)
		runtime.ReadMemStats(&after)
		// A decoded byte costs at most one Value, a row header or a change
		// (each appended to a doubling slice); a length prefix buys nothing.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
