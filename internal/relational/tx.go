package relational

import (
	"errors"
	"fmt"
	"slices"
)

// ErrBeforeImage reports a redo or undo that did not find a row it replaces
// in its table exactly as the change list recorded it.
var ErrBeforeImage = errors.New("relational: row differs from its before-image")

// StoreTx is an undo-log transaction over a Store: every mutation made
// through it records the rows it removed and the rows it added, and Rollback
// replays those records in reverse so the store returns to its
// pre-transaction contents. It exists for the XML update path, where a batch
// of DML must apply atomically — a failed statement mid-batch must leave the
// instance exactly as it was. The same records are the batch's delta:
// Changes hands them, grouped by table, to whoever maintains derived state
// (statistics) from the write instead of from a rescan, and Log hands them,
// in apply order, to the write-ahead log, whose replay is Store.Redo.
//
// StoreTx provides atomicity, not isolation: each statement publishes its
// table's new version as it applies (see Table), so a concurrent reader may
// see a batch's first statements without its last. Writers must be
// serialized externally — Planner.Update holds a write mutex for the whole
// batch.
type StoreTx struct {
	store *Store
	log   []txRecord
	done  bool
}

// txRecord is one applied mutation: an insert adds one row, a delete removes
// rows, an update removes removed[i] and adds added[i] in its place. Each
// record advanced its table's version exactly once.
type txRecord struct {
	table          *Table
	removed, added []Row
}

// TableChange is one table's share of a transaction's delta: one mutation
// (StoreTx.Log) or all of them (StoreTx.Changes). It is not netted: a row the
// transaction both added and removed appears on both sides, so consumers
// keeping counts fold Added before Removed.
type TableChange struct {
	Table          string
	Removed, Added []Row
	// Mutations is how many times the transaction advanced the table's
	// version. A reader that knew the table at version v may adopt the
	// change iff the table now stands at v+Mutations: nobody else wrote.
	Mutations uint64
}

// Begin starts an undo-log transaction on the store.
func (s *Store) Begin() *StoreTx { return &StoreTx{store: s} }

func (tx *StoreTx) table(name string) (*Table, error) {
	if tx.done {
		return nil, fmt.Errorf("relational: transaction already finished")
	}
	t := tx.store.Table(name)
	if t == nil {
		return nil, fmt.Errorf("relational: no table %s", name)
	}
	return t, nil
}

// Insert appends a row to the named table.
func (tx *StoreTx) Insert(table string, r Row) error {
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	r = r.Clone()
	if err := t.Insert(r); err != nil {
		return err
	}
	tx.log = append(tx.log, txRecord{table: t, added: []Row{r}})
	return nil
}

// DeleteWhere removes matching rows from the named table.
func (tx *StoreTx) DeleteWhere(table string, pred func(Row) bool) (int, error) {
	return tx.delete(table, nil, false, pred)
}

// DeleteKeys removes the rows of the named table whose primary key is in
// keys and that pred accepts (see Table.DeleteKeys).
func (tx *StoreTx) DeleteKeys(table string, keys []Value, pred func(Row) bool) (int, error) {
	return tx.delete(table, keys, true, pred)
}

func (tx *StoreTx) delete(table string, keys []Value, keyed bool, pred func(Row) bool) (int, error) {
	t, err := tx.table(table)
	if err != nil {
		return 0, err
	}
	removed := t.delete(keys, keyed, pred)
	if len(removed) > 0 {
		tx.log = append(tx.log, txRecord{table: t, removed: removed})
	}
	return len(removed), nil
}

// UpdateWhere rewrites matching rows in the named table.
func (tx *StoreTx) UpdateWhere(table string, pred func(Row) bool, fn func(Row) Row) (int, error) {
	return tx.update(table, nil, false, pred, fn)
}

// UpdateKeys rewrites the rows of the named table whose primary key is in
// keys and that pred accepts (see Table.UpdateKeys).
func (tx *StoreTx) UpdateKeys(table string, keys []Value, pred func(Row) bool, fn func(Row) Row) (int, error) {
	return tx.update(table, keys, true, pred, fn)
}

func (tx *StoreTx) update(table string, keys []Value, keyed bool, pred func(Row) bool, fn func(Row) Row) (int, error) {
	t, err := tx.table(table)
	if err != nil {
		return 0, err
	}
	olds, news, err := t.update(keys, keyed, pred, fn)
	if err != nil || len(olds) == 0 {
		return 0, err
	}
	tx.log = append(tx.log, txRecord{table: t, removed: olds, added: news})
	return len(olds), nil
}

// Changes returns the transaction's delta so far, one entry per written
// table in first-write order. It is valid until Commit or Rollback, which
// discard the log.
func (tx *StoreTx) Changes() []TableChange {
	var out []TableChange
	at := map[*Table]int{}
	for _, rec := range tx.log {
		i, ok := at[rec.table]
		if !ok {
			i = len(out)
			at[rec.table] = i
			out = append(out, TableChange{Table: rec.table.schema.Name})
		}
		out[i].Removed = append(out[i].Removed, rec.removed...)
		out[i].Added = append(out[i].Added, rec.added...)
		out[i].Mutations++
	}
	return out
}

// Log returns the transaction's mutations so far in apply order, one change
// per mutation (Mutations = 1): an insert adds one row, a delete removes
// rows, and an update replaces Removed[i] with Added[i] in place. It is the
// transaction's redo log (see Store.Redo) and, like Changes, valid until
// Commit or Rollback.
func (tx *StoreTx) Log() []TableChange {
	out := make([]TableChange, len(tx.log))
	for i, rec := range tx.log {
		out[i] = TableChange{Table: rec.table.schema.Name, Removed: rec.removed, Added: rec.added, Mutations: 1}
	}
	return out
}

// Commit finalizes the transaction, discarding the undo log. The mutations
// are already applied; Commit only marks the transaction finished.
func (tx *StoreTx) Commit() {
	tx.log = nil
	tx.done = true
}

// Rollback undoes the logged mutations in reverse, returning the store to
// its pre-transaction contents. It is a no-op after Commit or a prior
// Rollback.
func (tx *StoreTx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	var first error
	for i := len(tx.log) - 1; i >= 0; i-- {
		if err := tx.log[i].undo(); err != nil && first == nil {
			first = err
		}
	}
	tx.log = nil
	return first
}

// undo puts the rows the record added back to the rows it removed.
func (rec txRecord) undo() error { return rec.table.replace(rec.added, rec.removed) }

// Redo applies a change list as StoreTx.Log returned it, in order: on the
// store the transaction started from it reproduces the store the
// transaction committed, row order included. Each change is its record's
// undo with the roles swapped, so a removed row that is not in its table as
// logged fails the redo with ErrBeforeImage. A failed redo may leave part
// of the list applied.
func (s *Store) Redo(changes []TableChange) error {
	for _, c := range changes {
		t := s.Table(c.Table)
		if t == nil {
			return fmt.Errorf("relational: redo: no table %s", c.Table)
		}
		if err := t.replace(c.Removed, c.Added); err != nil {
			return err
		}
	}
	return nil
}

// replace swaps the rows from for the rows to: with from empty it inserts
// to, with to empty it deletes from, and otherwise it replaces each from[i]
// with to[i] in place. A row of from is found by primary key, or by contents
// in a table without one, and must equal its image there; a row that is
// missing or differs fails with ErrBeforeImage after the rows that were
// found have been replaced.
func (t *Table) replace(from, to []Row) error {
	name := t.schema.Name
	if len(from) == 0 {
		for _, r := range to {
			if err := t.Insert(r); err != nil {
				return err
			}
		}
		return nil
	}
	if len(to) > 0 && len(to) != len(from) {
		return fmt.Errorf("relational: table %s: %d rows to replace %d", name, len(to), len(from))
	}
	keyed := t.pk >= 0
	id := func(r Row) any {
		if keyed {
			return r[t.pk]
		}
		return r.Key()
	}
	// want holds, per identity, the positions in from not yet found; found
	// those found and not yet rewritten (equal rows of an unkeyed table are
	// interchangeable, so first come, first served).
	want, found := make(map[any][]int, len(from)), make(map[any][]int, len(from))
	var keys []Value
	for i, r := range from {
		if len(r) != len(t.schema.Columns) {
			return fmt.Errorf("relational: table %s: row of %d columns, want %d", name, len(r), len(t.schema.Columns))
		}
		want[id(r)] = append(want[id(r)], i)
		if keyed {
			keys = append(keys, r[t.pk])
		}
	}
	pred := func(r Row) bool {
		k := id(r)
		is := want[k]
		if len(is) == 0 || !slices.Equal(r, from[is[0]]) {
			return false
		}
		want[k], found[k] = is[1:], append(found[k], is[0])
		return true
	}
	n := 0
	if len(to) == 0 {
		n = len(t.delete(keys, keyed, pred))
	} else {
		olds, _, err := t.update(keys, keyed, pred, func(r Row) Row {
			k := id(r)
			i := found[k][0]
			found[k] = found[k][1:]
			return to[i]
		})
		if err != nil {
			return err
		}
		n = len(olds)
	}
	if n != len(from) {
		return fmt.Errorf("%w: table %s: %d of %d rows found", ErrBeforeImage, name, n, len(from))
	}
	return nil
}
