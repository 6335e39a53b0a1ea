package wal_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
	"xmlsql/internal/plancache"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/update"
	"xmlsql/internal/wal"
	"xmlsql/internal/workloads"
)

var xmarkCfg = workloads.XMarkConfig{ItemsPerContinent: 3, CategoriesPerItem: 1, NumCategories: 5, Seed: 7}

// durable is one durable tenant under test: a recovered store, the log that
// owns it, and an update applier whose DML path acknowledges through the log.
type durable struct {
	mgr  *wal.Manager
	mem  *backend.Mem
	s    *schema.Schema
	app  *update.Applier
	info *wal.RecoveryInfo
}

// openDurable opens (or boots) an xmark tenant in dir. On first boot it
// shreds the deterministic generated document and checkpoints, exactly as a
// server would.
func openDurable(t *testing.T, dir string, opts wal.Options) *durable {
	t.Helper()
	mgr, info, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s := workloads.XMark()
	store := mgr.Store()
	if !info.SnapshotLoaded {
		if _, err := shred.ShredAll(s, store, shred.Options{}, workloads.GenerateXMark(xmarkCfg)); err != nil {
			t.Fatalf("shred: %v", err)
		}
		if err := mgr.Checkpoint(); err != nil {
			t.Fatalf("bootstrap checkpoint: %v", err)
		}
	}
	mem := backend.NewMemOn(store)
	mem.SetCommitLog(mgr)
	app, err := update.New(s, integrity.StoreSource(store), integrity.StoreProbe(store), mem, plancache.Translator(s), update.Options{})
	if err != nil {
		t.Fatalf("update.New: %v", err)
	}
	return &durable{mgr: mgr, mem: mem, s: s, app: app, info: info}
}

// volatileReference builds the same xmark instance without any log, for
// differential comparison: ids and batch effects are deterministic, so
// applying the same mutations yields byte-identical dumps.
func volatileReference(t *testing.T) (*update.Applier, *relational.Store) {
	t.Helper()
	s := workloads.XMark()
	store := relational.NewStore()
	if _, err := shred.ShredAll(s, store, shred.Options{}, workloads.GenerateXMark(xmarkCfg)); err != nil {
		t.Fatalf("shred: %v", err)
	}
	app, err := update.ForStore(s, store, update.Options{})
	if err != nil {
		t.Fatalf("update.ForStore: %v", err)
	}
	return app, store
}

func insertBatch(n int) update.Batch {
	return update.Batch{Muts: []update.Mutation{{
		Op:   update.OpInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  fmt.Sprintf("<InCategory><Category>wal-%d</Category></InCategory>", n),
	}}}
}

func apply(t *testing.T, app *update.Applier, b update.Batch) {
	t.Helper()
	if _, err := app.Apply(context.Background(), b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func auditClean(t *testing.T, s *schema.Schema, store *relational.Store, touched integrity.Touched) {
	t.Helper()
	rep, err := integrity.AuditIncremental(context.Background(), integrity.StoreProbe(store), s, touched)
	if err != nil {
		t.Fatalf("incremental audit: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("incremental audit dirty after replay: %s", rep)
	}
}

// TestReplayFootprintExact pins that the replay footprint is the ids of the
// rows the batches really removed and added: a delete naming an id that
// matches nothing and an update whose predicate fails leave no trace, and
// only a table without an integer id column makes it incomplete.
func TestReplayFootprintExact(t *testing.T) {
	dir := t.TempDir()
	mgr, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := mgr.Store()
	for _, ts := range []*relational.TableSchema{
		{Name: "Item", PrimaryKey: "id", Columns: []relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "name", Kind: relational.KindString}}},
		{Name: "InCat", PrimaryKey: "id", Columns: []relational.Column{{Name: "id", Kind: relational.KindInt}}},
		{Name: "Loose", Columns: []relational.Column{{Name: "name", Kind: relational.KindString}}},
	} {
		if _, err := store.CreateTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	store.Table("Item").MustInsert(relational.Row{relational.Int(7), relational.Null})
	store.Table("Item").MustInsert(relational.Row{relational.Int(8), relational.String("b")})
	for id := int64(3); id <= 5; id++ {
		store.Table("InCat").MustInsert(relational.Row{relational.Int(id)})
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mem := backend.NewMemOn(store)
	mem.SetCommitLog(mgr)
	id := sqlast.ColRef{Column: schema.IDColumn}
	nameIsNull := sqlast.IsNull{Left: sqlast.ColRef{Column: "name"}}
	setName := []sqlast.Assign{{Column: "name", Value: sqlast.Lit{Value: relational.String("x")}}}
	if err := mem.ApplyDML(context.Background(), []sqlast.DMLStmt{
		&sqlast.InsertStmt{Table: "Item", Columns: []string{"id", "name"},
			Rows: [][]sqlast.Lit{{sqlast.IntLit(10), {Value: relational.String("a")}}}},
		&sqlast.DeleteStmt{Table: "InCat", Where: sqlast.In{Left: id, List: []sqlast.Lit{sqlast.IntLit(3), sqlast.IntLit(4), sqlast.IntLit(99)}}},
		&sqlast.UpdateStmt{Table: "Item", Set: setName, Where: sqlast.And{Kids: []sqlast.Expr{sqlast.Eq(id, sqlast.IntLit(7)), nameIsNull}}},
		&sqlast.UpdateStmt{Table: "Item", Set: setName, Where: sqlast.And{Kids: []sqlast.Expr{sqlast.Eq(id, sqlast.IntLit(8)), nameIsNull}}},
	}); err != nil {
		t.Fatal(err)
	}

	mgr2, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := func(rel string, id int64) integrity.TupleRef { return integrity.TupleRef{Rel: rel, ID: id} }
	want := integrity.Touched{
		Written: []integrity.TupleRef{ref("Item", 10), ref("Item", 7)},
		Deleted: []integrity.TupleRef{ref("InCat", 3), ref("InCat", 4)},
	}
	if !info.TouchedComplete || !reflect.DeepEqual(info.Touched, want) {
		t.Fatalf("footprint = %+v (complete %v), want %+v", info.Touched, info.TouchedComplete, want)
	}

	// Rows without an id name no tuple: the caller must audit in full.
	mem2 := backend.NewMemOn(mgr2.Store())
	mem2.SetCommitLog(mgr2)
	if err := mem2.ApplyDML(context.Background(), []sqlast.DMLStmt{&sqlast.InsertStmt{Table: "Loose", Columns: []string{"name"},
		Rows: [][]sqlast.Lit{{{Value: relational.String("z")}}}}}); err != nil {
		t.Fatal(err)
	}
	mgr3, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if info.TouchedComplete {
		t.Fatal("footprint of an id-less insert reported complete")
	}
}

func TestBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{})
	if d.info.SnapshotLoaded {
		t.Fatal("fresh dir reported a snapshot")
	}
	want := d.mgr.Store().Dump()
	if err := d.mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openDurable(t, dir, wal.Options{})
	defer d2.mgr.Close()
	if !d2.info.SnapshotLoaded {
		t.Fatal("reopen found no snapshot")
	}
	if d2.info.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches, want 0", d2.info.ReplayedBatches)
	}
	if got := d2.mgr.Store().Dump(); got != want {
		t.Fatal("recovered store differs from bootstrapped store")
	}
}

func TestCommitRequiresSnapshot(t *testing.T) {
	mgr, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer mgr.Close()
	err = mgr.Commit([]relational.TableChange{{Table: "T", Removed: []relational.Row{{relational.Int(1)}}}})
	if !errors.Is(err, wal.ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestReplayAfterKill is the happy recovery path: commit batches, "kill"
// the process (no Close, no final checkpoint), reopen, and require the
// replayed store byte-identical to the live one, with a clean incremental
// audit over the replayed footprint.
func TestReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
	const batches = 5
	for i := 0; i < batches; i++ {
		apply(t, d.app, insertBatch(i))
	}
	want := d.mgr.Store().Dump()
	// Process dies here: the manager is abandoned without Close. Records
	// were fsynced per commit, so nothing is lost.

	d2 := openDurable(t, dir, wal.Options{})
	defer d2.mgr.Close()
	if d2.info.ReplayedBatches != batches {
		t.Fatalf("replayed %d batches, want %d", d2.info.ReplayedBatches, batches)
	}
	if d2.info.TruncatedTail {
		t.Fatal("clean log reported a truncated tail")
	}
	if !d2.info.TouchedComplete {
		t.Fatal("footprint incomplete for id-scoped batches")
	}
	if len(d2.info.Touched.Written) == 0 {
		t.Fatal("no written tuples in replay footprint")
	}
	if got := d2.mgr.Store().Dump(); got != want {
		t.Fatal("recovered store differs from pre-kill store")
	}
	auditClean(t, d2.s, d2.mgr.Store(), d2.info.Touched)

	// The recovered tenant keeps working durably.
	apply(t, d2.app, insertBatch(99))
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
	apply(t, d.app, insertBatch(0))
	want := d.mgr.Store().Dump()
	if err := d.mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Append garbage to the tail segment: a torn record a crash mid-write
	// would leave.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x01, 0, 0, 0xde, 0xad, 0xbe})
	f.Close()

	d2 := openDurable(t, dir, wal.Options{})
	defer d2.mgr.Close()
	if !d2.info.TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	if d2.info.ReplayedBatches != 1 {
		t.Fatalf("replayed %d batches, want 1", d2.info.ReplayedBatches)
	}
	if got := d2.mgr.Store().Dump(); got != want {
		t.Fatal("recovered store differs after tail truncation")
	}
	// The truncated file must be physically clean: committing and
	// re-opening again replays without another truncation.
	apply(t, d2.app, insertBatch(1))
	want2 := d2.mgr.Store().Dump()
	d3 := openDurable(t, dir, wal.Options{})
	defer d3.mgr.Close()
	if d3.info.TruncatedTail {
		t.Fatal("tail still torn after truncation")
	}
	if got := d3.mgr.Store().Dump(); got != want2 {
		t.Fatal("second recovery differs")
	}
}

// frame hand-builds a log record the way the log frames one: u32 length,
// u32 CRC32C of the payload, then seq | kind | body.
func frame(seq uint64, kind byte, body []byte) []byte {
	payload := append(binary.LittleEndian.AppendUint64(nil, seq), kind)
	payload = append(payload, body...)
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(rec, payload...)
}

// readDir returns every file of a directory with its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestOpenRefusesForeignRecords pins that a record whose checksum holds but
// which this version does not read is refused, not taken for a torn tail:
// truncating it would drop an acknowledged batch. Open fails with
// ErrLogFormat and leaves every file of the directory as it was, snapshot
// debris included.
func TestOpenRefusesForeignRecords(t *testing.T) {
	cases := []struct {
		name string
		kind byte
		body []byte
	}{
		// A retired statement-level record: DELETE FROM InCat, no WHERE.
		{"retired-kind-1", 1, []byte{1, 2, 5, 'I', 'n', 'C', 'a', 't', 0}},
		{"unknown-kind", 9, nil},
		{"undecodable-body", wal.KindChanges, []byte{5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
			apply(t, d.app, insertBatch(0))
			seq := d.mgr.Stats().LastSeq + 1
			if err := d.mgr.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(frame(seq, tc.kind, tc.body))
			f.Close()
			if err := os.WriteFile(filepath.Join(dir, "snap-debris.tmp"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)

			if _, _, err := wal.Open(dir, wal.Options{}); !errors.Is(err, wal.ErrLogFormat) {
				t.Fatalf("Open error = %v, want ErrLogFormat", err)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("refused Open changed the data directory")
			}
		})
	}
}

// TestReplayEveryMutationShape replays batches of every shape DML planning
// emits — a delete, a replace, an insert that sets a column of existing
// tuples (an UPDATE), and one batch that inserts tuples and deletes them
// again — and requires the recovered store equal to the live one, row order
// included, with a footprint of exactly the ids the batches touched.
func TestReplayEveryMutationShape(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
	batches := []update.Batch{
		{Muts: []update.Mutation{{Op: update.OpDelete, Path: "/Site/Regions/Asia/Item"}}},
		{Muts: []update.Mutation{{Op: update.OpReplace, Path: "/Site/Regions/Africa/Item",
			XML: "<Item><InCategory><Category>swapped</Category></InCategory></Item>"}}},
		// The replacements have no name, so this insert sets the column.
		{Muts: []update.Mutation{{Op: update.OpInsert, Path: "/Site/Regions/Africa/Item", XML: "<name>late</name>"}}},
		{Muts: []update.Mutation{
			{Op: update.OpInsert, Path: "/Site/Regions/Europe/Item", XML: "<InCategory><Category>doomed</Category></InCategory>"},
			{Op: update.OpDelete, Path: "/Site/Regions/Europe/Item"},
		}},
	}
	written := map[integrity.TupleRef]bool{} // the fold of the live footprints
	for i, b := range batches {
		res, err := d.app.Apply(context.Background(), b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 2 {
			if _, ok := res.Statements[0].(*sqlast.UpdateStmt); !ok || len(res.Statements) != 3 {
				t.Fatalf("value-setting insert planned %v, want 3 UPDATEs", res.Statements)
			}
		}
		for _, r := range res.Touched.Deleted {
			written[r] = false
		}
		for _, r := range res.Touched.Written {
			written[r] = true
		}
	}
	want := d.mgr.Store().Dump()
	rows := map[string][]relational.Row{}
	for _, name := range d.mgr.Store().TableNames() {
		rows[name] = d.mgr.Store().Table(name).Rows()
	}
	// The process dies here, without Close.

	d2 := openDurable(t, dir, wal.Options{})
	defer d2.mgr.Close()
	store := d2.mgr.Store()
	if d2.info.ReplayedBatches != len(batches) || !d2.info.TouchedComplete {
		t.Fatalf("replayed %d batches (footprint complete %v), want %d", d2.info.ReplayedBatches, d2.info.TouchedComplete, len(batches))
	}
	if store.Dump() != want {
		t.Fatal("recovered store differs from pre-kill store")
	}
	for name, want := range rows {
		if got := store.Table(name).Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("table %s: recovered rows in another order", name)
		}
	}
	got := map[integrity.TupleRef]bool{}
	for _, r := range d2.info.Touched.Deleted {
		got[r] = false
	}
	for _, r := range d2.info.Touched.Written {
		got[r] = true
	}
	if len(got) != len(d2.info.Touched.Written)+len(d2.info.Touched.Deleted) || !reflect.DeepEqual(got, written) {
		t.Fatalf("replay footprint %+v, want the batches' footprints %v", d2.info.Touched, written)
	}
	auditClean(t, d2.s, store, d2.info.Touched)
}

// TestCorruptSnapshotFallsBackToOlder corrupts the newest snapshot while an
// older snapshot plus the full segment chain between them are present (the
// debris a crash between snapshot rename and rotation can leave): recovery
// must skip the bad snapshot and reconstruct the same state from the older
// one plus a longer replay.
func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
	apply(t, d.app, insertBatch(0))
	apply(t, d.app, insertBatch(1))
	want := d.mgr.Store().Dump()
	if err := d.mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Save the pre-checkpoint state: old snapshot + the segment holding
	// both records.
	saved := map[string][]byte{}
	for _, pat := range []string{"snap-*.snap", "wal-*.log"} {
		paths, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			saved[filepath.Base(p)] = data
		}
	}

	d2 := openDurable(t, dir, wal.Options{SnapshotEvery: -1})
	if err := d2.mgr.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := d2.mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the new snapshot and restore the old files alongside it.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v, want exactly 1 after rotation", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, content := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d3 := openDurable(t, dir, wal.Options{})
	defer d3.mgr.Close()
	if d3.info.SkippedSnapshots != 1 {
		t.Fatalf("skipped snapshots = %d, want 1", d3.info.SkippedSnapshots)
	}
	if d3.info.ReplayedBatches != 2 {
		t.Fatalf("replayed %d batches, want 2 from the older snapshot", d3.info.ReplayedBatches)
	}
	if got := d3.mgr.Store().Dump(); got != want {
		t.Fatal("fallback recovery differs from the original state")
	}
	auditClean(t, d3.s, d3.mgr.Store(), d3.info.Touched)
}

func TestSnapshotRotationGC(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SnapshotEvery: 2})
	for i := 0; i < 7; i++ {
		apply(t, d.app, insertBatch(i))
	}
	want := d.mgr.Store().Dump()
	st := d.mgr.Stats()
	if st.Snapshots < 3 {
		t.Fatalf("snapshots = %d, want >= 3 with SnapshotEvery=2", st.Snapshots)
	}
	if err := d.mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1 (older ones GC'd)", len(snaps))
	}
	if len(segs) != 1 {
		t.Fatalf("segments on disk = %d, want 1 (older ones GC'd)", len(segs))
	}

	d2 := openDurable(t, dir, wal.Options{})
	defer d2.mgr.Close()
	if d2.info.ReplayedBatches > 2 {
		t.Fatalf("replayed %d batches, want <= 2 (snapshot bounds the suffix)", d2.info.ReplayedBatches)
	}
	if got := d2.mgr.Store().Dump(); got != want {
		t.Fatal("recovered store differs after rotation")
	}
}

// TestGroupCommitWindow exercises SyncEvery > 0: acknowledged batches live
// in the commit buffer until a sync point, so a kill before the window
// flushes loses them atomically (pre-batch state), while Sync makes them
// durable.
func TestGroupCommitWindow(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, wal.Options{SyncEvery: time.Hour, SnapshotEvery: -1})
	pre := d.mgr.Store().Dump()
	apply(t, d.app, insertBatch(0))
	// Kill before the syncer ever runs: the record is still buffered.
	d2 := openDurable(t, dir, wal.Options{})
	if d2.info.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches, want 0 (unsynced window lost)", d2.info.ReplayedBatches)
	}
	if got := d2.mgr.Store().Dump(); got != pre {
		t.Fatal("recovered store is not the pre-window state")
	}
	d2.mgr.Close()

	// Same again, but Sync before the kill: the batch survives.
	dir2 := t.TempDir()
	d3 := openDurable(t, dir2, wal.Options{SyncEvery: time.Hour, SnapshotEvery: -1})
	apply(t, d3.app, insertBatch(0))
	want := d3.mgr.Store().Dump()
	if err := d3.mgr.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	d4 := openDurable(t, dir2, wal.Options{})
	defer d4.mgr.Close()
	if d4.info.ReplayedBatches != 1 {
		t.Fatalf("replayed %d batches, want 1 after Sync", d4.info.ReplayedBatches)
	}
	if got := d4.mgr.Store().Dump(); got != want {
		t.Fatal("recovered store differs after synced window")
	}
}

// TestCloseStopsFastSyncer pins a shutdown liveness bug: with a short
// group-commit window the syncer goroutine re-enters its select between
// ticks, and Close (which nils the stop-channel field before waiting) must
// still be able to stop it — a syncer selecting on the nil field would
// block Close forever.
func TestCloseStopsFastSyncer(t *testing.T) {
	d := openDurable(t, t.TempDir(), wal.Options{SyncEvery: time.Millisecond, SnapshotEvery: -1})
	apply(t, d.app, insertBatch(0))
	time.Sleep(10 * time.Millisecond) // let the syncer tick a few times
	done := make(chan error, 1)
	go func() { done <- d.mgr.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: syncer goroutine not stopped")
	}
}
