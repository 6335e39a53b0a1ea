package backend

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/xmltree"
)

// Mem is the in-process backend: tuples live in a relational.Store and
// queries run through internal/engine. It is the reference implementation —
// the differential tests hold every other backend to its answers.
type Mem struct {
	store *relational.Store
	opts  engine.Options

	// writeMu serializes ApplyDML batches so that, with a CommitLog
	// attached, the log's record order always matches apply order (replay
	// re-applies records in sequence). Readers are not blocked — StoreTx
	// provides atomicity, not isolation.
	writeMu sync.Mutex
	// log, when set, is consulted before a batch commits: see SetCommitLog.
	log CommitLog
	// tracker is the store's live statistics, created by the first caller
	// that wants statistics (see StatsTracker); nil until then, so a backend
	// nobody plans adaptively against pays nothing for it.
	tracker atomic.Pointer[stats.Tracker]

	// Accumulated shared-work memo counters across every Execute, so a
	// serving layer can report engine-level reuse per backend (and, with
	// one Mem per tenant, per tenant) rather than per query only.
	sharedHits      atomic.Int64
	sharedMisses    atomic.Int64
	sharedSavedRows atomic.Int64
}

// NewMem creates an in-memory backend over a fresh store.
func NewMem() *Mem { return NewMemOn(relational.NewStore()) }

// NewMemOn wraps an existing store, so already-shredded data (or data shared
// with other components) can be served through the Backend interface.
func NewMemOn(store *relational.Store) *Mem { return &Mem{store: store} }

// SetEngineOptions replaces the engine options used by Execute (parallelism,
// recursion limits). The zero value is engine.Execute's default behavior.
func (m *Mem) SetEngineOptions(opts engine.Options) { m.opts = opts }

// Store exposes the underlying store.
func (m *Mem) Store() *relational.Store { return m.store }

// Name implements Backend.
func (m *Mem) Name() string { return "mem" }

// EnsureSchema creates any missing shredded relations for s. Existing tables
// are kept, matching the shredder's own behavior.
func (m *Mem) EnsureSchema(s *schema.Schema) error {
	defs, err := s.DeriveRelations()
	if err != nil {
		return err
	}
	for name, def := range defs {
		if m.store.Table(name) != nil {
			continue
		}
		if _, err := m.store.CreateTable(def.TableSchema()); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Backend by shredding straight into the store.
func (m *Mem) Load(s *schema.Schema, docs ...*xmltree.Document) ([]*shred.Result, error) {
	return shred.ShredAll(s, m.store, shred.Options{}, docs...)
}

// Execute implements Backend. The engine polls ctx between union branches,
// between recursive-CTE rounds, and inside join loops, so cancellation is
// prompt even mid-query.
func (m *Mem) Execute(ctx context.Context, q *sqlast.Query) (*engine.Result, error) {
	res, st, err := engine.ExecuteCtxStats(ctx, m.store, q, m.opts)
	if err == nil {
		m.sharedHits.Add(st.SharedHits)
		m.sharedMisses.Add(st.SharedMisses)
		m.sharedSavedRows.Add(st.SharedSavedRows)
	}
	return res, err
}

// StatsTracker returns the store's live statistics tracker, creating it on
// first use. From then on every ApplyDML batch folds its change list into it
// at commit, so snapshots stay exact without rescans; writes that bypass
// ApplyDML are noticed per table by version (see stats.Tracker). Creation
// takes the write lock so it never lands in the middle of a batch.
func (m *Mem) StatsTracker() *stats.Tracker {
	if tr := m.tracker.Load(); tr != nil {
		return tr
	}
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	tr := m.tracker.Load()
	if tr == nil {
		tr = stats.NewTracker(m.store)
		m.tracker.Store(tr)
	}
	return tr
}

// CollectStats implements StatsCollector with the live tracker's snapshot.
func (m *Mem) CollectStats(context.Context, *schema.Schema) (*stats.Stats, error) {
	snap, _ := m.StatsTracker().Snapshot()
	return snap, nil
}

// EngineStats returns the shared-work memo counters accumulated across every
// Execute on this backend (hits, misses, saved rows).
func (m *Mem) EngineStats() engine.Stats {
	return engine.Stats{
		SharedHits:      m.sharedHits.Load(),
		SharedMisses:    m.sharedMisses.Load(),
		SharedSavedRows: m.sharedSavedRows.Load(),
	}
}

// Close implements Backend; the store is garbage-collected. An attached
// CommitLog that is closeable (wal.Manager is) is closed with the backend,
// flushing any group-commit window.
func (m *Mem) Close() error {
	if c, ok := m.log.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
