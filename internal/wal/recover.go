package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xmlsql/internal/integrity"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
)

// RecoveryInfo describes what Open found and did. The caller uses it to
// decide the tenant's post-recovery trust state: ReplayedBatches == 0 means
// the store is exactly a snapshot (nothing to re-verify); otherwise Touched
// (when TouchedComplete) scopes an incremental audit over the replayed
// neighborhoods, and TouchedComplete == false demands a full audit.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a valid snapshot was found; false
	// means a first boot (the store starts empty and the caller must load
	// it and Checkpoint before committing batches).
	SnapshotLoaded bool
	// SnapshotLSN is the sequence number the loaded snapshot covers.
	SnapshotLSN uint64
	// SkippedSnapshots counts snapshot files that failed validation
	// (truncated, bad checksum) and were passed over for an older one.
	SkippedSnapshots int
	// ReplayedBatches is the number of log records applied on top of the
	// snapshot.
	ReplayedBatches int
	// LastSeq is the sequence number of the last durable record.
	LastSeq uint64
	// TruncatedTail reports that the log ended in a torn or corrupt record,
	// which was physically truncated away. Everything before it replayed
	// normally; the batch it belonged to was never acknowledged.
	TruncatedTail bool
	// Touched is the combined integrity footprint of the replayed batches:
	// the ids of the rows they removed and added (later changes win: a
	// tuple re-written after a delete counts as written). It is exact, not
	// a superset. Meaningful only when TouchedComplete.
	Touched integrity.Touched
	// TouchedComplete reports whether every replayed row had an integer id
	// column to name its tuple by. No mapping derives a table without one;
	// when false the caller must fall back to a full audit.
	TouchedComplete bool
	// Elapsed is the wall time recovery took (snapshot load + replay).
	Elapsed time.Duration
}

// Open recovers the data directory and returns a manager ready to commit:
// it loads the newest valid snapshot (falling back past corrupt ones),
// replays the suffix of log records in sequence order, truncates a torn or
// corrupt tail at the first bad checksum, rebuilds the join indexes, and
// opens the tail segment for appending.
//
// Replay redoes each record's change list (relational.Store.Redo), so a
// replayed store is the store the original commits produced, row order
// included; a removed row that differs from its logged before-image fails
// Open. A record that passes its checksum but is of another kind, or does
// not decode, fails Open with ErrLogFormat before anything on disk changes.
func Open(dir string, opts Options) (*Manager, *RecoveryInfo, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	var snaps, segs []uint64
	var debris []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A temp file is always debris: either a torn snapshot write or
			// a complete one that missed its rename — in both cases the log
			// still covers its contents. It goes once replay succeeded.
			debris = append(debris, name)
			continue
		}
		if lsn, ok := parseSnapshotName(name); ok {
			snaps = append(snaps, lsn)
		}
		if first, ok := parseSegmentName(name); ok {
			segs = append(segs, first)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })    // oldest first

	info := &RecoveryInfo{TouchedComplete: true}
	var store *relational.Store
	for _, lsn := range snaps {
		st, gotLSN, err := readSnapshot(filepath.Join(dir, snapshotName(lsn)))
		if err != nil {
			info.SkippedSnapshots++
			continue
		}
		store = st
		info.SnapshotLoaded = true
		info.SnapshotLSN = gotLSN
		break
	}
	if store == nil {
		store = relational.NewStore()
	}

	lastSeq := info.SnapshotLSN
	foot := newFootprint()
	for i, first := range segs {
		path := filepath.Join(dir, segmentName(first))
		truncated, newLast, err := replaySegment(path, store, info.SnapshotLSN, lastSeq, foot, info)
		if err != nil {
			return nil, nil, err
		}
		lastSeq = newLast
		if truncated {
			info.TruncatedTail = true
			// Anything after a torn record is unreachable debris.
			for _, later := range segs[i+1:] {
				os.Remove(filepath.Join(dir, segmentName(later)))
			}
			break
		}
	}
	for _, name := range debris {
		os.Remove(filepath.Join(dir, name))
	}
	info.LastSeq = lastSeq
	info.Touched = foot.touched()
	if err := store.BuildJoinIndexes(schema.ParentIDColumn); err != nil {
		return nil, nil, fmt.Errorf("wal: rebuilding indexes: %w", err)
	}

	m := &Manager{
		dir:     dir,
		opts:    opts,
		store:   store,
		nextSeq: lastSeq + 1,
		hasSnap: info.SnapshotLoaded,
		snapLSN: info.SnapshotLSN,
	}
	tail := segmentName(m.nextSeq)
	if n := len(segs); n > 0 {
		if last := segs[n-1]; last <= lastSeq {
			if _, err := os.Stat(filepath.Join(dir, segmentName(last))); err == nil {
				tail = segmentName(last)
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, tail), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open tail segment: %w", err)
	}
	m.f = f
	syncDir(dir)
	m.startSyncer()
	info.Elapsed = time.Since(start)
	return m, info, nil
}

// replaySegment applies the records of one segment whose sequence numbers
// follow lastSeq, skipping records the snapshot already covers. On a torn
// or corrupt record it truncates the file at that point and reports
// truncated=true. A sequence gap or regression (beyond snapshot-covered
// records) is treated the same way: the log is append-only, so a broken
// chain can only be a damaged tail, and the records beyond it belong to
// batches whose acknowledgement never became durable. A record whose
// checksum holds but whose kind or body this version does not read is no
// tail: it fails with ErrLogFormat and the file stays as it is.
func replaySegment(path string, store *relational.Store, snapLSN, lastSeq uint64, foot *footprint, info *RecoveryInfo) (bool, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, lastSeq, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	off := 0
	truncateAt := -1
	for off < len(data) {
		if off+recordHeaderLen > len(data) {
			truncateAt = off
			break
		}
		n := int(readU32(data[off:]))
		crc := readU32(data[off+4:])
		if n < 9 || n > maxRecordLen || off+recordHeaderLen+n > len(data) {
			truncateAt = off
			break
		}
		payload := data[off+recordHeaderLen : off+recordHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != crc {
			truncateAt = off
			break
		}
		seq := readU64(payload)
		kind := payload[8]
		body := payload[9:]
		if seq <= snapLSN {
			// Covered by the snapshot (a stale segment left by a crash
			// between snapshot rename and rotation).
			off += recordHeaderLen + n
			continue
		}
		if kind != KindChanges {
			return false, lastSeq, fmt.Errorf("%w: %s record %d is of kind %d", ErrLogFormat, path, seq, kind)
		}
		if seq != lastSeq+1 {
			truncateAt = off
			break
		}
		changes, err := decodeChanges(body)
		if err != nil {
			return false, lastSeq, fmt.Errorf("%w: %s record %d: %v", ErrLogFormat, path, seq, err)
		}
		if err := store.Redo(changes); err != nil {
			return false, lastSeq, fmt.Errorf("wal: replay %s record %d: %w", path, seq, err)
		}
		foot.add(store, changes, info)
		lastSeq = seq
		info.ReplayedBatches++
		off += recordHeaderLen + n
	}
	if truncateAt >= 0 {
		if err := os.Truncate(path, int64(truncateAt)); err != nil {
			return false, lastSeq, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		return true, lastSeq, nil
	}
	return false, lastSeq, nil
}

// footprint folds the ids of the replayed rows in apply order: the last
// change to name a tuple decides whether it counts as written (added) or
// deleted (removed), so an update, which removes and re-adds its row, is a
// write, and a tuple inserted and deleted again is a delete.
type footprint struct {
	written map[integrity.TupleRef]bool
	order   []integrity.TupleRef
}

func newFootprint() *footprint {
	return &footprint{written: map[integrity.TupleRef]bool{}}
}

func (f *footprint) add(store *relational.Store, changes []relational.TableChange, info *RecoveryInfo) {
	for _, c := range changes {
		ci := store.Table(c.Table).Schema().ColumnIndex(schema.IDColumn)
		mark := func(rows []relational.Row, written bool) {
			for _, r := range rows {
				if ci < 0 || r[ci].Kind() != relational.KindInt {
					info.TouchedComplete = false
					continue
				}
				ref := integrity.TupleRef{Rel: c.Table, ID: r[ci].AsInt()}
				if _, seen := f.written[ref]; !seen {
					f.order = append(f.order, ref)
				}
				f.written[ref] = written
			}
		}
		mark(c.Removed, false)
		mark(c.Added, true)
	}
}

func (f *footprint) touched() integrity.Touched {
	var t integrity.Touched
	for _, r := range f.order {
		if f.written[r] {
			t.Written = append(t.Written, r)
		} else {
			t.Deleted = append(t.Deleted, r)
		}
	}
	return t
}
