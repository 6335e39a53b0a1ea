package backend

import (
	"context"
	"io"
	"sync"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
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
}

// NewMem creates an in-memory backend over a fresh store.
func NewMem() *Mem { return NewMemOn(relational.NewStore()) }

// NewMemOn wraps an existing store, so already-shredded data (or data shared
// with other components) can be served through the Backend interface.
func NewMemOn(store *relational.Store) *Mem { return &Mem{store: store} }

// SetEngineOptions replaces the engine options used by Execute (join
// algorithms, resource limits). The zero value is the engine's default.
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
	return engine.Execute(ctx, m.store, q, m.opts)
}

// Prepare is Execute stopped before the projection (engine.Prepare).
func (m *Mem) Prepare(ctx context.Context, q *sqlast.Query) (*engine.Prepared, error) {
	return engine.Prepare(ctx, m.store, q, m.opts)
}

// EngineStats returns zero counters. The engine no longer shares work across
// branches; the method stays only because the repository benchmark's
// engine.memo_hit_share probe still reads these two fields.
func (m *Mem) EngineStats() struct{ SharedHits, SharedMisses int64 } {
	return struct{ SharedHits, SharedMisses int64 }{}
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
