package relational

import "fmt"

// StoreTx is an undo-log transaction over a Store: every mutation made
// through it records the rows it removed and the rows it added, and Rollback
// replays those records in reverse so the store returns to its
// pre-transaction contents. It exists for the XML update path, where a batch
// of DML must apply atomically — a failed statement mid-batch must leave the
// instance exactly as it was. The same records are the batch's delta:
// Changes hands them, grouped by table, to whoever maintains derived state
// (statistics) from the write instead of from a rescan.
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

// TableChange is one table's share of a transaction's delta. It is not
// netted: a row the transaction both added and removed appears on both
// sides, so consumers keeping counts fold Added before Removed.
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

func (rec txRecord) undo() error {
	t := rec.table
	name := t.schema.Name
	switch {
	case len(rec.removed) == 0:
		// Insert: take the one added row out again, by primary key where
		// there is one and by full contents otherwise.
		r := rec.added[0]
		var n int
		if t.pk >= 0 {
			n = t.DeleteKeys([]Value{r[t.pk]}, nil)
		} else {
			key, done := r.Key(), false
			n = t.DeleteWhere(func(row Row) bool {
				if done || row.Key() != key {
					return false
				}
				done = true
				return true
			})
		}
		if n == 0 {
			return fmt.Errorf("relational: table %s: undo insert: row vanished", name)
		}
	case len(rec.added) == 0:
		for _, r := range rec.removed {
			if err := t.Insert(r); err != nil {
				return fmt.Errorf("relational: table %s: undo delete: %w", name, err)
			}
		}
	default:
		// Update: put each original back in its rewrite's place, found by
		// primary key where there is one and by contents otherwise
		// (multiset-correct without a key).
		var n int
		var err error
		if t.pk >= 0 {
			keys := make([]Value, len(rec.added))
			orig := make(map[Value]Row, len(rec.added))
			for i, nr := range rec.added {
				keys[i] = nr[t.pk]
				orig[keys[i]] = rec.removed[i]
			}
			n, err = t.UpdateKeys(keys, nil, func(r Row) Row { return orig[r[t.pk]] })
		} else {
			remaining := map[string][]Row{}
			for i, nr := range rec.added {
				k := nr.Key()
				remaining[k] = append(remaining[k], rec.removed[i])
			}
			n, err = t.UpdateWhere(
				func(r Row) bool { return len(remaining[r.Key()]) > 0 },
				func(r Row) Row {
					k := r.Key()
					rs := remaining[k]
					remaining[k] = rs[1:]
					return rs[0]
				},
			)
		}
		if err != nil {
			return fmt.Errorf("relational: table %s: undo update: %w", name, err)
		}
		if n != len(rec.removed) {
			return fmt.Errorf("relational: table %s: undo update: restored %d of %d rows", name, n, len(rec.removed))
		}
	}
	return nil
}
