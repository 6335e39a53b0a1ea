package backend

import (
	"context"
	"fmt"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// DML is the optional write capability of a Backend: applying a planned
// batch of data-modification statements atomically. A batch either applies
// in full or leaves the store exactly as it was — the Mem backend keeps an
// undo log (relational.StoreTx), the DB backend runs the batch inside one
// database/sql transaction. The XML update path (internal/update,
// Planner.Update) requires this capability; backends without it reject
// updates with a typed error from the caller.
//
// DML provides atomicity and durability-as-far-as-the-store-goes, not
// isolation: callers serialize writers (Planner.Update holds a mutex for
// the whole batch) and accept that concurrent readers may observe
// intermediate states on Mem, per the relational.Table caveats.
type DML interface {
	ApplyDML(ctx context.Context, stmts []sqlast.DMLStmt) error
}

// CommitLog is the durability hook of the Mem backend, implemented by
// wal.Manager. Commit must make the batch durable (write and fsync, per its
// sync policy) before returning; an error means the batch never became
// durable and the caller rolls it back.
type CommitLog interface {
	Commit(stmts []sqlast.DMLStmt) error
}

// SetCommitLog attaches a write-ahead log to the backend: from now on
// ApplyDML acknowledges a batch only after the log has accepted it. Must be
// set before the backend starts serving writes.
func (m *Mem) SetCommitLog(l CommitLog) { m.log = l }

// ApplyDML implements DML for the in-memory backend by interpreting the
// statements over the store under an undo-log transaction: any failed
// statement (or context cancellation between statements) rolls the whole
// batch back.
//
// With a CommitLog attached the ordering is apply → log (fsync) → commit:
// a batch that fails to apply is never logged, and a batch whose log write
// fails is rolled back before the error is returned — so after a crash the
// store recovers to exactly the pre-batch state (record absent or torn,
// truncated on replay) or the post-batch state (record durable), never a
// torn one. Batches are serialized so record order always matches apply
// order.
//
// Once the log has accepted the batch, and before the transaction's change
// list is discarded, the list is folded into the statistics tracker (if
// anyone created one): statistics follow the commit instead of a rescan.
func (m *Mem) ApplyDML(ctx context.Context, stmts []sqlast.DMLStmt) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	tr := m.tracker.Load()
	if tr != nil {
		tr.BeginWrite()
	}
	tx := m.store.Begin()
	if err := m.applyAndLog(ctx, tx, stmts); err != nil {
		tx.Rollback()
		if tr != nil {
			// Nothing to fold: the tables the batch touched and restored
			// moved their versions and get rescanned.
			tr.EndWrite(nil)
		}
		return err
	}
	if tr != nil {
		tr.EndWrite(tx.Changes())
	}
	tx.Commit()
	return nil
}

// applyAndLog interprets the statements under tx and, if they all applied,
// offers the batch to the commit log.
func (m *Mem) applyAndLog(ctx context.Context, tx *relational.StoreTx, stmts []sqlast.DMLStmt) error {
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := ApplyStmt(tx, m.store, stmt); err != nil {
			return err
		}
	}
	if m.log != nil {
		if err := m.log.Commit(stmts); err != nil {
			return fmt.Errorf("backend: commit log: %w", err)
		}
	}
	return nil
}

// ApplyStmt interprets one DML statement over a store through an undo-log
// transaction, returning the number of rows affected. It is the single
// in-process DML interpreter: Mem.ApplyDML uses it directly, and the fakedb
// driver routes its parsed DELETE/UPDATE statements through it so both
// backends agree on semantics.
func ApplyStmt(tx *relational.StoreTx, store *relational.Store, stmt sqlast.DMLStmt) (int64, error) {
	t := store.Table(stmt.DMLTable())
	if t == nil {
		return 0, fmt.Errorf("backend: dml: no table %s", stmt.DMLTable())
	}
	ts := t.Schema()
	switch s := stmt.(type) {
	case *sqlast.InsertStmt:
		ords := make([]int, len(s.Columns))
		for i, c := range s.Columns {
			ci := ts.ColumnIndex(c)
			if ci < 0 {
				return 0, fmt.Errorf("backend: dml: table %s has no column %s", ts.Name, c)
			}
			ords[i] = ci
		}
		for _, vals := range s.Rows {
			if len(vals) != len(ords) {
				return 0, fmt.Errorf("backend: dml: insert into %s: %d values for %d columns", ts.Name, len(vals), len(ords))
			}
			row := make(relational.Row, len(ts.Columns))
			for i := range row {
				row[i] = relational.Null
			}
			for i, v := range vals {
				row[ords[i]] = v.Value
			}
			if err := tx.Insert(ts.Name, row); err != nil {
				return 0, err
			}
		}
		return int64(len(s.Rows)), nil
	case *sqlast.DeleteStmt:
		var evalErr error
		n, err := tx.DeleteWhere(ts.Name, func(r relational.Row) bool {
			if evalErr != nil {
				return false
			}
			ok, err := sqlast.EvalRowPredicate(ts, s.Where, r)
			if err != nil {
				evalErr = err
				return false
			}
			return ok
		})
		if evalErr != nil {
			return 0, evalErr
		}
		return int64(n), err
	case *sqlast.UpdateStmt:
		ords := make([]int, len(s.Set))
		for i, a := range s.Set {
			ci := ts.ColumnIndex(a.Column)
			if ci < 0 {
				return 0, fmt.Errorf("backend: dml: table %s has no column %s", ts.Name, a.Column)
			}
			ords[i] = ci
		}
		var evalErr error
		n, err := tx.UpdateWhere(ts.Name,
			func(r relational.Row) bool {
				if evalErr != nil {
					return false
				}
				ok, err := sqlast.EvalRowPredicate(ts, s.Where, r)
				if err != nil {
					evalErr = err
					return false
				}
				return ok
			},
			func(r relational.Row) relational.Row {
				for i, a := range s.Set {
					r[ords[i]] = a.Value.Value
				}
				return r
			})
		if evalErr != nil {
			return 0, evalErr
		}
		return int64(n), err
	}
	return 0, fmt.Errorf("backend: dml: unsupported statement %T", stmt)
}

// ApplyDML implements DML for the database/sql backend: the rendered
// statements run inside one transaction, so a mid-batch failure (including
// an injected fault on the fakedb driver) rolls back every statement already
// sent.
func (b *DB) ApplyDML(ctx context.Context, stmts []sqlast.DMLStmt) error {
	tx, err := b.db.BeginTx(ctx, nil)
	if err != nil {
		return fmt.Errorf("backend: begin update transaction: %w", err)
	}
	for _, stmt := range stmts {
		text := stmt.SQLFor(b.dialect)
		if _, err := tx.ExecContext(ctx, text); err != nil {
			tx.Rollback()
			return fmt.Errorf("backend: dml %q: %w", text, err)
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("backend: commit update transaction: %w", err)
	}
	return nil
}
