// Package wal gives a tenant's in-memory store durability: a checksummed,
// length-prefixed write-ahead log of committed batches plus periodic
// full-store snapshots, with crash recovery that replays the snapshot's
// suffix and truncates a torn tail at the first bad checksum.
//
// A record is physical redo: the batch's change list as the store's
// transaction recorded it, every removed row with its before-image and
// every added row whole (see codec.go). Replay redoes each list
// (relational.Store.Redo) without interpreting SQL and fails if a removed
// row is not where the log says it was. A record of any other kind, or one
// whose body does not decode, is refused with ErrLogFormat and the
// directory is left as it was; only a torn or corrupt tail is truncated.
//
// What makes this WAL different from a generic one is the acceptance test
// recovery gets for free from the paper's lossless-from-XML constraint:
// after replay, the P1–P3 neighborhoods of every replayed tuple are audited
// (integrity.AuditIncremental over the ids of the rows the records carry),
// so a recovered tenant is only marked Verified when the replayed instance
// still embeds a well-formed document — a dirty replay demotes to safe mode
// instead of serving wrong answers.
//
// Layout of a data directory:
//
//	wal-<firstseq>.log   log segments; records are (len | crc32c | payload),
//	                     payload = seq | kind | body, seqs strictly increasing
//	snap-<lsn>.snap      full-store snapshots; the name is the last sequence
//	                     number the snapshot covers
//
// Writes are staged in a commit buffer and only reach the file at sync
// points, so the crash-injection hooks can model every distinct durability
// state a real kill produces: record never written, record torn mid-write,
// record written but not fsynced, snapshot torn, snapshot complete but not
// renamed.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xmlsql/internal/relational"
)

// Sentinel errors.
var (
	// ErrCrashed is returned by every operation after an injected crash
	// point fired: the manager behaves as a dead process and refuses all
	// further work until the directory is re-opened (recovered).
	ErrCrashed = errors.New("wal: crashed by fault injection")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrNoSnapshot is returned by Commit before Bootstrap/Checkpoint has
	// established the base snapshot replay starts from.
	ErrNoSnapshot = errors.New("wal: no base snapshot; run Checkpoint after the initial load")
	// ErrLogFormat is returned by Open for a record whose checksum holds
	// but whose kind is unknown or retired, or whose body does not decode:
	// a log this version does not read. Open changes nothing on disk then.
	ErrLogFormat = errors.New("wal: log record in a format this version does not read")
)

// Record kinds. Kind 1, a batch logged as its DML statements, is retired.
const (
	// KindChanges marks a committed batch's change list.
	KindChanges byte = 2
)

const (
	recordHeaderLen      = 8       // u32 length + u32 crc32c
	maxRecordLen         = 1 << 28 // sanity bound when scanning a segment
	defaultSnapshotEvery = 256
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CrashPoint identifies an injectable kill site inside the durability path.
// The fault harness's Options.Crash hook returns true to "kill the process"
// there: the manager performs exactly the partial work a real crash at that
// point leaves behind, then poisons itself (every later call returns
// ErrCrashed) so the test can re-open the directory and check what recovery
// makes of the debris.
type CrashPoint int

const (
	// CrashLostUnsynced dies with the commit record still in the process's
	// buffer: nothing of it reaches the file. Recovery must yield the
	// pre-batch state.
	CrashLostUnsynced CrashPoint = iota + 1
	// CrashMidRecord dies partway through the record's write: a torn
	// prefix reaches the file (and is made durable, the worst case).
	// Recovery must truncate the tail and yield the pre-batch state.
	CrashMidRecord
	// CrashBeforeFsync dies after the record's write but before its fsync.
	// The bytes may or may not survive; the in-process emulation keeps
	// them, so recovery yields the post-batch state — acceptable, because
	// the commit was never acknowledged.
	CrashBeforeFsync
	// CrashMidSnapshotWrite dies partway through writing the snapshot temp
	// file. The half-written temp must be ignored by recovery.
	CrashMidSnapshotWrite
	// CrashMidSnapshotRename dies after the temp file is complete and
	// synced but before the atomic rename: no snapshot exists yet, the log
	// still covers everything.
	CrashMidSnapshotRename
	// CrashAfterSnapshotRename dies after the rename but before old
	// segments are rotated away: the new snapshot and stale segments
	// coexist, and replay must skip records the snapshot already covers.
	CrashAfterSnapshotRename
)

func (p CrashPoint) String() string {
	switch p {
	case CrashLostUnsynced:
		return "lost-unsynced"
	case CrashMidRecord:
		return "mid-record"
	case CrashBeforeFsync:
		return "before-fsync"
	case CrashMidSnapshotWrite:
		return "mid-snapshot-write"
	case CrashMidSnapshotRename:
		return "mid-snapshot-rename"
	case CrashAfterSnapshotRename:
		return "after-snapshot-rename"
	default:
		return fmt.Sprintf("CrashPoint(%d)", int(p))
	}
}

// Options tunes a log manager.
type Options struct {
	// SyncEvery selects the group-commit policy. Zero (the default) fsyncs
	// every commit before acknowledging it — full durability. A positive
	// duration acknowledges commits as soon as they are staged and lets a
	// background syncer flush at that cadence: a crash may lose up to one
	// window of acknowledged batches (each lost batch disappears atomically
	// — the log can tear only at a record boundary or be truncated there).
	SyncEvery time.Duration
	// SnapshotEvery is the number of committed records between automatic
	// full-store snapshots. Zero means the default (256); negative disables
	// automatic snapshots (Checkpoint still works).
	SnapshotEvery int
	// Crash is the fault-injection hook; nil in production. It is called
	// at each crash point in the durability path and returns true to kill
	// the manager there.
	Crash func(CrashPoint) bool
}

func (o Options) snapshotEvery() int {
	if o.SnapshotEvery == 0 {
		return defaultSnapshotEvery
	}
	if o.SnapshotEvery < 0 {
		return 0
	}
	return o.SnapshotEvery
}

// Stats is a point-in-time summary of the log's activity since Open.
type Stats struct {
	// Records is the number of batch records committed since Open.
	Records int64
	// Bytes is the framed size of those records.
	Bytes int64
	// Snapshots is the number of snapshots taken since Open.
	Snapshots int64
	// LastSeq is the sequence number of the newest committed record (or the
	// recovered position if nothing committed since).
	LastSeq uint64
	// SnapshotLSN is the sequence number the newest snapshot covers.
	SnapshotLSN uint64
}

// Manager owns one data directory: it appends committed batches to the tail
// segment, takes periodic snapshots, and was produced by Open, which
// recovered the store it serves. All methods are safe for concurrent use;
// appends are serialized internally (callers — Mem.ApplyDML — are
// serialized anyway, so record order always matches apply order).
type Manager struct {
	dir  string
	opts Options

	mu        sync.Mutex
	store     *relational.Store
	f         *os.File // tail segment
	pending   []byte   // staged records not yet written to f
	dirty     bool     // bytes written to f but not yet fsynced
	nextSeq   uint64
	hasSnap   bool
	snapLSN   uint64
	sinceSnap int
	failed    error
	closed    bool

	records   int64
	bytes     int64
	snapshots int64

	stop   chan struct{}
	wg     sync.WaitGroup
	tmpSeq uint64 // distinguishes snapshot temp files within one process
}

// Dir returns the data directory the manager owns.
func (m *Manager) Dir() string { return m.dir }

// Store returns the recovered store the log is bound to. Mutations must go
// through a backend whose commit path calls Commit — writing to the store
// directly bypasses durability.
func (m *Manager) Store() *relational.Store { return m.store }

// Stats returns activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Records:     m.records,
		Bytes:       m.bytes,
		Snapshots:   m.snapshots,
		LastSeq:     m.nextSeq - 1,
		SnapshotLSN: m.snapLSN,
	}
}

func (m *Manager) usableLocked() error {
	if m.failed != nil {
		return m.failed
	}
	if m.closed {
		return ErrClosed
	}
	return nil
}

func (m *Manager) crash(p CrashPoint) bool {
	return m.opts.Crash != nil && m.opts.Crash(p)
}

// poison emulates process death: the file handle is dropped and every later
// operation fails with ErrCrashed until the directory is re-opened.
func (m *Manager) poisonLocked() error {
	m.failed = ErrCrashed
	if m.f != nil {
		m.f.Close()
	}
	return ErrCrashed
}

func (m *Manager) failLocked(err error) error {
	if m.failed == nil {
		m.failed = err
	}
	return err
}

// flushLocked moves staged records from the commit buffer into the file.
func (m *Manager) flushLocked() error {
	if len(m.pending) == 0 {
		return nil
	}
	if _, err := m.f.Write(m.pending); err != nil {
		return m.failLocked(fmt.Errorf("wal: append: %w", err))
	}
	m.pending = nil
	m.dirty = true
	return nil
}

// syncLocked makes everything staged or written so far durable.
func (m *Manager) syncLocked() error {
	if err := m.flushLocked(); err != nil {
		return err
	}
	if !m.dirty {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		return m.failLocked(fmt.Errorf("wal: fsync: %w", err))
	}
	m.dirty = false
	return nil
}

// frameRecord wraps a payload body into the on-disk record form.
func frameRecord(seq uint64, kind byte, body []byte) []byte {
	payload := make([]byte, 0, 9+len(body))
	payload = appendU64(payload, seq)
	payload = append(payload, kind)
	payload = append(payload, body...)
	rec := make([]byte, 0, recordHeaderLen+len(payload))
	rec = appendU32(rec, uint32(len(payload)))
	rec = appendU32(rec, crc32.Checksum(payload, crcTable))
	return append(rec, payload...)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Commit logs one applied batch's change list (relational.StoreTx.Log)
// and, under the default sync policy, returns only once the record is
// fsynced — the caller acknowledges the batch to its client only after this
// returns nil. On error the caller must roll the batch back: the record is
// either absent or torn (recovery truncates it), so failing the batch keeps
// log and store agreeing.
//
// Commit also triggers an automatic snapshot every Options.SnapshotEvery
// records; it runs under the same lock, so the snapshot always captures a
// batch boundary.
func (m *Manager) Commit(changes []relational.TableChange) error {
	body := encodeChanges(changes)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return err
	}
	if !m.hasSnap {
		return ErrNoSnapshot
	}
	rec := frameRecord(m.nextSeq, KindChanges, body)
	if m.crash(CrashLostUnsynced) {
		return m.poisonLocked()
	}
	if m.crash(CrashMidRecord) {
		// The torn prefix reaches the file and is even made durable —
		// the worst debris a mid-write kill can leave.
		if m.flushLocked() == nil {
			m.f.Write(rec[:recordHeaderLen+len(rec)/3])
			m.f.Sync()
		}
		return m.poisonLocked()
	}
	m.pending = append(m.pending, rec...)
	if m.opts.SyncEvery <= 0 {
		if err := m.flushLocked(); err != nil {
			return err
		}
		if m.crash(CrashBeforeFsync) {
			return m.poisonLocked()
		}
		if err := m.syncLocked(); err != nil {
			return err
		}
	}
	m.nextSeq++
	m.records++
	m.bytes += int64(len(rec))
	m.sinceSnap++
	if se := m.opts.snapshotEvery(); se > 0 && m.sinceSnap >= se {
		// The batch itself is already durable; a snapshot failure here
		// surfaces to the caller (the store and log no longer advance),
		// it does not undo the commit.
		return m.checkpointLocked()
	}
	return nil
}

// Sync forces everything acknowledged so far to disk. Only meaningful under
// a group-commit window (SyncEvery > 0); a no-op otherwise.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return err
	}
	return m.syncLocked()
}

// Checkpoint takes a full-store snapshot now and rotates the log: after it
// returns, recovery starts from this snapshot and the old segments are gone.
// The first Checkpoint after loading a fresh store establishes the base
// snapshot Commit requires.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return err
	}
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	// Records staged under a group-commit window must be durable before the
	// snapshot that covers them claims their LSN.
	if err := m.syncLocked(); err != nil {
		return err
	}
	lsn := m.nextSeq - 1
	payload := encodeSnapshot(m.store, lsn)
	data := frameSnapshot(payload)
	final := filepath.Join(m.dir, snapshotName(lsn))
	m.tmpSeq++
	tmp := fmt.Sprintf("%s.%d.tmp", final, m.tmpSeq)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return m.failLocked(fmt.Errorf("wal: snapshot: %w", err))
	}
	if m.crash(CrashMidSnapshotWrite) {
		f.Write(data[:len(data)/2])
		f.Sync()
		f.Close()
		return m.poisonLocked()
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return m.failLocked(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return m.failLocked(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return m.failLocked(fmt.Errorf("wal: snapshot: %w", err))
	}
	if m.crash(CrashMidSnapshotRename) {
		return m.poisonLocked()
	}
	if err := os.Rename(tmp, final); err != nil {
		return m.failLocked(fmt.Errorf("wal: snapshot: %w", err))
	}
	syncDir(m.dir)
	m.hasSnap = true
	m.snapLSN = lsn
	m.sinceSnap = 0
	m.snapshots++
	if m.crash(CrashAfterSnapshotRename) {
		return m.poisonLocked()
	}
	return m.rotateLocked()
}

// rotateLocked opens a fresh tail segment at the current position and
// removes everything the newest snapshot supersedes: older segments (all
// their records have seq <= snapLSN) and older snapshots.
func (m *Manager) rotateLocked() error {
	newPath := filepath.Join(m.dir, segmentName(m.nextSeq))
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return m.failLocked(fmt.Errorf("wal: rotate: %w", err))
	}
	if m.f != nil {
		m.f.Close()
	}
	m.f = f
	m.dirty = false
	syncDir(m.dir)
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil // GC is best-effort; stale files are skipped by replay
	}
	for _, e := range entries {
		name := e.Name()
		if name == filepath.Base(newPath) {
			continue
		}
		if first, ok := parseSegmentName(name); ok && first <= m.snapLSN {
			os.Remove(filepath.Join(m.dir, name))
		}
		if lsn, ok := parseSnapshotName(name); ok && lsn < m.snapLSN {
			os.Remove(filepath.Join(m.dir, name))
		}
	}
	return nil
}

// Close flushes and fsyncs the tail, stops the background syncer, and
// releases the directory. It is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		m.wg.Wait()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return nil // a crashed manager has nothing left to flush
	}
	err := m.syncLocked()
	if m.f != nil {
		if cerr := m.f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}

func (m *Manager) startSyncer() {
	if m.opts.SyncEvery <= 0 {
		return
	}
	m.stop = make(chan struct{})
	m.wg.Add(1)
	// The goroutine must hold its own reference: Close nils the field
	// before waiting, and a select over a nil channel blocks forever.
	stop := m.stop
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.opts.SyncEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.mu.Lock()
				if m.failed == nil && !m.closed {
					m.syncLocked()
				}
				m.mu.Unlock()
			}
		}
	}()
}

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }
func snapshotName(lsn uint64) string     { return fmt.Sprintf("snap-%016x.snap", lsn) }

func parseSegmentName(name string) (uint64, bool) {
	var v uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.log", &v); n == 1 && err == nil && name == segmentName(v) {
		return v, true
	}
	return 0, false
}

func parseSnapshotName(name string) (uint64, bool) {
	var v uint64
	if n, err := fmt.Sscanf(name, "snap-%016x.snap", &v); n == 1 && err == nil && name == snapshotName(v) {
		return v, true
	}
	return 0, false
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Best-effort: some platforms/filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
