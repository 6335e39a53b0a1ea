package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// TableSchema is the definition of a table: its name, ordered columns, and
// the (single-column) primary key used by the shredded relations ("id").
type TableSchema struct {
	Name    string
	Columns []Column
	// PrimaryKey is the name of the primary key column, or "" if none.
	PrimaryKey string
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema contains the named column.
func (s *TableSchema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// Clone returns a deep copy of the schema.
func (s *TableSchema) Clone() *TableSchema {
	c := &TableSchema{Name: s.Name, PrimaryKey: s.PrimaryKey}
	c.Columns = append([]Column(nil), s.Columns...)
	return c
}

// Row is a tuple; Row[i] corresponds to TableSchema.Columns[i].
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Key returns a hash key identifying the full tuple (used for multiset
// comparison of query results).
func (r Row) Key() string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('|')
	}
	return b.String()
}

// Table is an in-memory heap of rows plus optional hash indexes.
//
// Readers (Rows, AppendLookup, IndexShape, LookupPK, Len, SortedRows) may
// overlap each other and writers: an RWMutex guards the row slice and the
// indexes. The row slice is copy-on-write: Insert appends past the end of
// every slice a reader holds, and a delete or update publishes a fresh dense
// slice, so a slice from Rows stays one version of the table. Indexes map
// values to the stored rows, in table order, and every write maintains them
// for the rows it touches. A stored row is cloned on the way in, never
// mutated, and has a column (CreateTable rejects column-less schemas), so
// &r[0] identifies it.
type Table struct {
	mu      sync.RWMutex
	schema  *TableSchema
	pk      int // ordinal of the primary key column, -1 if none
	rows    []Row
	pkIndex map[Value]Row       // primary key value -> row
	indexes map[string]*hashIdx // column name -> index
	// version counts row mutations (inserts, deletes, updates) and never
	// repeats. A statistics tracker records the version its counts account
	// for; a mismatch later means someone else wrote, and the table is
	// rescanned (see internal/stats).
	version uint64
}

type hashIdx struct {
	col     int
	buckets map[Value][]Row // each bucket in table order
}

// NewTable creates an empty table with the given schema. If the schema names
// a primary key a uniqueness-enforcing index is maintained on it.
func NewTable(schema *TableSchema) *Table {
	t := &Table{schema: schema.Clone(), pk: -1, indexes: map[string]*hashIdx{}}
	if schema.PrimaryKey != "" {
		t.pk = schema.ColumnIndex(schema.PrimaryKey)
		t.pkIndex = map[Value]Row{}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *TableSchema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row. It validates arity, column kinds (NULL is allowed in
// any column except the primary key) and primary key uniqueness.
func (t *Table) Insert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.check(r, "insert"); err != nil {
		return err
	}
	row := r.Clone()
	if t.pkIndex != nil {
		if _, dup := t.pkIndex[row[t.pk]]; dup {
			return fmt.Errorf("relational: table %s: duplicate primary key %v", t.schema.Name, row[t.pk])
		}
		t.pkIndex[row[t.pk]] = row
	}
	for _, idx := range t.indexes {
		k := row[idx.col]
		idx.buckets[k] = append(idx.buckets[k], row)
	}
	t.rows = append(t.rows, row)
	t.version++
	return nil
}

// check validates a row's arity, column kinds and non-NULL primary key for
// an insert or update.
func (t *Table) check(r Row, op string) error {
	if len(r) != len(t.schema.Columns) {
		return fmt.Errorf("relational: table %s: %s arity %d, want %d", t.schema.Name, op, len(r), len(t.schema.Columns))
	}
	for i, v := range r {
		if !v.IsNull() && v.Kind() != t.schema.Columns[i].Kind {
			return fmt.Errorf("relational: table %s: column %s: %s of %v, want %v",
				t.schema.Name, t.schema.Columns[i].Name, op, v.Kind(), t.schema.Columns[i].Kind)
		}
	}
	if t.pk >= 0 && r[t.pk].IsNull() {
		return fmt.Errorf("relational: table %s: NULL primary key", t.schema.Name)
	}
	return nil
}

// Version returns the table's mutation counter: it advances on every
// successful Insert and on every delete or update that changes rows.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// MustInsert inserts and panics on error; for tests and generators whose
// inputs are constructed correct.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// Rows returns the table's rows. The slice and rows must not be mutated.
// The returned slice is a stable snapshot: later writes never touch a slot
// of it (see Table). Its capacity is clipped to its length, so an append by
// the holder copies instead of writing where Insert appends.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clip(t.rows)
}

// DeleteWhere removes every row for which pred returns true and returns how
// many were removed.
func (t *Table) DeleteWhere(pred func(Row) bool) int { return len(t.delete(nil, false, pred)) }

// DeleteKeys removes the rows whose primary key is in keys and that pred
// accepts (nil accepts all), found by probing the primary-key index rather
// than by a scan, and returns how many were removed. A table without a
// primary key has no rows to find.
func (t *Table) DeleteKeys(keys []Value, pred func(Row) bool) int {
	return len(t.delete(keys, true, pred))
}

// delete removes the rows matchLocked selects and returns them.
func (t *Table) delete(keys []Value, keyed bool, pred func(Row) bool) []Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	gone := t.matchLocked(keys, keyed, pred)
	if len(gone) == 0 {
		return nil
	}
	for _, r := range gone {
		if t.pkIndex != nil {
			delete(t.pkIndex, r[t.pk])
		}
		for _, idx := range t.indexes {
			idx.remove(r)
		}
	}
	t.rows = t.rewriteLocked(gone, nil)
	t.version++
	return gone
}

// UpdateWhere replaces every row for which pred returns true with fn(copy)
// and returns how many changed. The replacement rows are validated like
// inserts (arity, kinds, non-NULL unique primary keys); on any invalid
// replacement the table is left untouched and an error returned. A
// replacement takes its original's position.
func (t *Table) UpdateWhere(pred func(Row) bool, fn func(Row) Row) (int, error) {
	olds, _, err := t.update(nil, false, pred, fn)
	return len(olds), err
}

// UpdateKeys is UpdateWhere over the rows whose primary key is in keys,
// found by probing the primary-key index rather than by a scan. A nil pred
// accepts every such row.
func (t *Table) UpdateKeys(keys []Value, pred func(Row) bool, fn func(Row) Row) (int, error) {
	olds, _, err := t.update(keys, true, pred, fn)
	return len(olds), err
}

// update replaces the rows matchLocked selects and returns them with their
// replacements.
func (t *Table) update(keys []Value, keyed bool, pred func(Row) bool, fn func(Row) Row) (olds, news []Row, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	olds = t.matchLocked(keys, keyed, pred)
	if len(olds) == 0 {
		return nil, nil, nil
	}
	news = make([]Row, len(olds))
	for i, r := range olds {
		news[i] = fn(r.Clone())
		if err := t.check(news[i], "update"); err != nil {
			return nil, nil, err
		}
	}
	if t.pkIndex != nil {
		// The new keys must be unique among themselves and against the
		// rows the update leaves alone.
		freed, taken := make(map[Value]bool, len(olds)), make(map[Value]bool, len(news))
		for _, r := range olds {
			freed[r[t.pk]] = true
		}
		for _, nr := range news {
			if _, held := t.pkIndex[nr[t.pk]]; held && !freed[nr[t.pk]] || taken[nr[t.pk]] {
				return nil, nil, fmt.Errorf("relational: table %s: duplicate primary key %v", t.schema.Name, nr[t.pk])
			}
			taken[nr[t.pk]] = true
		}
		for _, r := range olds {
			delete(t.pkIndex, r[t.pk])
		}
		for _, nr := range news {
			t.pkIndex[nr[t.pk]] = nr
		}
	}
	t.rows = t.rewriteLocked(olds, news)
	for _, idx := range t.indexes {
		// A row keeps its bucket slot unless its value changed. DML planning
		// never changes an indexed column (a replace inherits parentid), so
		// refiling the buckets of moved rows in table order may take a scan.
		moved := map[Value][]Row{}
		for i, r := range olds {
			if k := news[i][idx.col]; k == r[idx.col] {
				idx.buckets[k][idx.slot(r)] = news[i]
			} else {
				idx.remove(r)
				moved[k] = nil
			}
		}
		if len(moved) == 0 {
			continue
		}
		for _, r := range t.rows {
			if b, ok := moved[r[idx.col]]; ok {
				moved[r[idx.col]] = append(b, r)
			}
		}
		for k, b := range moved {
			idx.buckets[k] = b
		}
	}
	t.version++
	return olds, news, nil
}

// matchLocked returns the rows pred accepts (nil accepts all), each once:
// when keyed, among the rows whose primary key is in keys, in sorted key
// order; otherwise among all rows, in table order. Callers hold t.mu.
func (t *Table) matchLocked(keys []Value, keyed bool, pred func(Row) bool) []Row {
	var out []Row
	if !keyed {
		for _, r := range t.rows {
			if pred == nil || pred(r) {
				out = append(out, r)
			}
		}
		return out
	}
	if len(keys) > 1 { // each row once, however often its key repeats
		keys = slices.Clone(keys)
		slices.SortFunc(keys, Value.Compare)
		keys = slices.Compact(keys)
	}
	for _, k := range keys {
		if r, ok := t.pkIndex[k]; ok && (pred == nil || pred(r)) {
			out = append(out, r)
		}
	}
	return out
}

// rewriteLocked returns a fresh dense copy of the rows in which each row of
// olds is replaced by its counterpart in news, or dropped when news is nil.
// The copy has room for as many appends as rows were touched, so the next
// insert does not regrow it. Callers hold t.mu.
func (t *Table) rewriteLocked(olds, news []Row) []Row {
	at := make(map[*Value]int, len(olds))
	for i, r := range olds {
		at[&r[0]] = i
	}
	next := make([]Row, 0, len(t.rows)+len(olds))
	for _, r := range t.rows {
		if i, hit := at[&r[0]]; !hit {
			next = append(next, r)
		} else if news != nil {
			next = append(next, news[i])
		}
	}
	return next
}

// slot returns r's position in its bucket.
func (idx *hashIdx) slot(r Row) int {
	return slices.IndexFunc(idx.buckets[r[idx.col]], func(x Row) bool { return &x[0] == &r[0] })
}

// remove takes r out of its bucket, keeping the bucket's order.
func (idx *hashIdx) remove(r Row) {
	k, i := r[idx.col], idx.slot(r)
	if b := slices.Delete(idx.buckets[k], i, i+1); len(b) > 0 {
		idx.buckets[k] = b
	} else {
		delete(idx.buckets, k)
	}
}

// BuildIndex builds (or rebuilds) a hash index on the named column. Once
// built, every write maintains the index. Build indexes before serving
// reads: the build itself takes the write lock, but readers that resolved
// the rows snapshot earlier may probe a stale index.
func (t *Table) BuildIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("relational: table %s: no column %s", t.schema.Name, column)
	}
	idx := &hashIdx{col: ci, buckets: map[Value][]Row{}}
	for _, r := range t.rows {
		idx.buckets[r[ci]] = append(idx.buckets[r[ci]], r)
	}
	t.indexes[column] = idx
	return nil
}

// isPK reports whether column is the primary key, whose uniqueness index
// serves lookups like any hash index.
func (t *Table) isPK(column string) bool { return t.pkIndex != nil && column == t.schema.PrimaryKey }

// HasIndex reports whether the named column has a hash index: one built by
// BuildIndex, or the primary key's.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[column]
	return ok || t.isPK(column)
}

// IndexShape returns the table's row count and the number of distinct
// values in the named column's index, 0 when the column has no index: rows
// over keys is the index's mean bucket size.
func (t *Table) IndexShape(column string) (rows, keys int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[column]; ok {
		keys = len(idx.buckets)
	} else if t.isPK(column) {
		keys = len(t.pkIndex)
	}
	return len(t.rows), keys
}

// AppendLookup appends to dst the rows whose named column equals v, in table
// order, and returns the extended slice. It appends nothing when the column
// has no index (see HasIndex). The appended rows must not be mutated.
func (t *Table) AppendLookup(dst []Row, column string, v Value) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[column]; ok {
		dst = append(dst, idx.buckets[v]...)
	} else if r, ok := t.pkIndex[v]; ok && t.isPK(column) {
		dst = append(dst, r)
	}
	return dst
}

// LookupPK returns the row whose primary key equals v, probing the
// uniqueness index. The second result is false when the table has no primary
// key or no row carries that key. The returned row must not be mutated.
func (t *Table) LookupPK(v Value) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.pkIndex[v]
	return r, ok
}

// SortedRows returns a copy of the rows in deterministic order (for golden
// tests and dumps).
func (t *Table) SortedRows() []Row {
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	out := make([]Row, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool { return rowLess(out[i], out[j]) })
	return out
}

func rowLess(a, b Row) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}
