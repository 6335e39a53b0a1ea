package stats

import (
	"sync"
	"sync/atomic"

	"xmlsql/internal/relational"
)

// Tracker keeps the statistics of one store current without rescanning it:
// it holds every table's value multisets privately and publishes immutable
// *Stats snapshots. A writer that commits through it (backend.Mem.ApplyDML:
// BeginWrite, then EndWrite with the transaction's change list) costs
// O(batch × columns) and republishes only the written relations' TableStats.
// Every other writer — shredding loads, quarantine, a rolled-back
// transaction, direct Table calls — is caught per table by its version: a
// table whose version is not the one the tracker last accounted for is
// rescanned, alone and once, by the next Snapshot.
//
// Invariant: whenever no write is in progress, Snapshot's relations equal
// CollectStore's over the same store.
type Tracker struct {
	store *relational.Store

	mu      sync.Mutex
	writing bool
	tables  map[string]*trackedTable

	snap atomic.Pointer[Stats]
}

type trackedTable struct {
	counts *tableCounts
	ver    uint64 // the table version counts accounts for
	pub    *TableStats
}

// NewTracker binds a tracker to store; nothing is scanned until the first
// Snapshot.
func NewTracker(store *relational.Store) *Tracker {
	return &Tracker{store: store, tables: map[string]*trackedTable{}}
}

// Store returns the store the tracker follows.
func (t *Tracker) Store() *relational.Store { return t.store }

// Snapshot returns the current statistics. scanned reports that this call
// had to scan at least one table (first use, or a write that went around
// BeginWrite/EndWrite). While a tracked write is in progress it answers with
// the last committed snapshot: statistics are advisory, and a plan chosen
// one batch late is still a correct plan.
func (t *Tracker) Snapshot() (snap *Stats, scanned bool) {
	// Table versions only grow, so the sums agree only if every table still
	// stands where the snapshot accounted for it.
	if s := t.snap.Load(); s != nil && s.Version == t.store.Version() {
		return s, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.snap.Load()
	if cur != nil && t.writing {
		return cur, false
	}
	for _, name := range t.store.TableNames() {
		tbl := t.store.Table(name)
		// Version before rows: a writer slipping in between leaves the rows
		// newer than the recorded version, which costs one more rescan; the
		// other order would record a version newer than the rows and miss it.
		ver := tbl.Version()
		if tt := t.tables[name]; tt != nil && tt.ver == ver {
			continue
		}
		tc := collectTable(tbl)
		t.tables[name] = &trackedTable{counts: tc, ver: ver, pub: tc.stats()}
		scanned = true
	}
	if !scanned && cur != nil {
		return cur, false
	}
	return t.publishLocked(), scanned
}

// BeginWrite announces a transaction whose change list EndWrite will
// deliver. Writers are serialized by the caller.
func (t *Tracker) BeginWrite() {
	t.mu.Lock()
	t.writing = true
	t.mu.Unlock()
}

// EndWrite ends the announced transaction. changes is the committed
// transaction's delta, or nil when it rolled back. A table's delta is folded
// in only if the table stands exactly where the tracker knew it plus this
// transaction's own mutations; otherwise (someone else wrote as well, or the
// transaction was undone) the version mismatch stays and the next Snapshot
// rescans that table.
func (t *Tracker) EndWrite(changes []relational.TableChange) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writing = false
	folded := false
	for _, ch := range changes {
		tt, tbl := t.tables[ch.Table], t.store.Table(ch.Table)
		if tt == nil || tbl == nil || tt.ver+ch.Mutations != tbl.Version() {
			continue
		}
		tt.counts.add(ch.Added)
		tt.counts.remove(ch.Removed)
		tt.ver += ch.Mutations
		tt.pub = tt.counts.stats()
		folded = true
	}
	if folded {
		t.publishLocked()
	}
}

// publishLocked assembles and publishes a snapshot from the per-table
// statistics. Its Version is the store version the tracker accounts for.
func (t *Tracker) publishLocked() *Stats {
	s := &Stats{Relations: make(map[string]*TableStats, len(t.tables)), Version: uint64(len(t.tables))}
	for name, tt := range t.tables {
		s.Relations[name] = tt.pub
		s.TotalRows += tt.pub.Rows
		s.Version += tt.ver
	}
	t.snap.Store(s)
	return s
}
