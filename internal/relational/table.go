package relational

import (
	"fmt"
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
// The read path (Rows, Lookup, Len, SortedRows) is safe for any number of
// concurrent readers, including readers overlapping with writers: an RWMutex
// guards the row heap and indexes, inserted rows are defensively cloned and
// never mutated afterwards, and indexes are maintained incrementally on
// insert rather than built lazily on first probe — the query engine only
// ever observes fully built indexes. This is what lets the engine evaluate
// UNION ALL branches (and whole queries, via Planner) from parallel
// goroutines against a shared store.
type Table struct {
	mu      sync.RWMutex
	schema  *TableSchema
	rows    []Row
	pkIndex map[Value]int       // primary key value -> row ordinal
	indexes map[string]*hashIdx // column name -> index
	// version counts row mutations (inserts, deletes, updates) and never
	// repeats. A statistics tracker records the version its counts account
	// for; a mismatch later means someone else wrote, and the table is
	// rescanned (see internal/stats).
	version uint64
}

type hashIdx struct {
	col     int
	buckets map[Value][]int
}

// NewTable creates an empty table with the given schema. If the schema names
// a primary key a uniqueness-enforcing index is maintained on it.
func NewTable(schema *TableSchema) *Table {
	t := &Table{schema: schema.Clone(), indexes: map[string]*hashIdx{}}
	if schema.PrimaryKey != "" {
		t.pkIndex = map[Value]int{}
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
	if len(r) != len(t.schema.Columns) {
		return fmt.Errorf("relational: table %s: insert arity %d, want %d", t.schema.Name, len(r), len(t.schema.Columns))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		if v.Kind() != t.schema.Columns[i].Kind {
			return fmt.Errorf("relational: table %s: column %s: inserted %v, want %v",
				t.schema.Name, t.schema.Columns[i].Name, v.Kind(), t.schema.Columns[i].Kind)
		}
	}
	if t.pkIndex != nil {
		pi := t.schema.ColumnIndex(t.schema.PrimaryKey)
		v := r[pi]
		if v.IsNull() {
			return fmt.Errorf("relational: table %s: NULL primary key", t.schema.Name)
		}
		if _, dup := t.pkIndex[v]; dup {
			return fmt.Errorf("relational: table %s: duplicate primary key %v", t.schema.Name, v)
		}
		t.pkIndex[v] = len(t.rows)
	}
	row := r.Clone()
	for _, idx := range t.indexes {
		k := row[idx.col]
		idx.buckets[k] = append(idx.buckets[k], len(t.rows))
	}
	t.rows = append(t.rows, row)
	t.version++
	return nil
}

// Version returns the table's mutation counter: it advances on every
// successful Insert and on every DeleteWhere/UpdateWhere that changes rows.
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
// The returned slice is a stable snapshot: concurrent inserts may extend the
// table but never touch the prefix a reader already holds.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// DeleteWhere removes every row for which pred returns true and returns how
// many were removed, rebuilding the primary-key and hash indexes. Unlike
// Insert it replaces the row slice (snapshots held by concurrent readers
// keep the old rows); quiesce serving before mutating tables it reads.
func (t *Table) DeleteWhere(pred func(Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make([]Row, 0, len(t.rows))
	for _, r := range t.rows {
		if !pred(r) {
			kept = append(kept, r)
		}
	}
	n := len(t.rows) - len(kept)
	if n == 0 {
		return 0
	}
	t.rows = kept
	t.version++
	t.reindexLocked()
	return n
}

// UpdateWhere replaces every row for which pred returns true with fn(copy)
// and returns how many changed. The replacement rows are validated like
// inserts (arity, kinds, non-NULL unique primary keys); on any invalid
// replacement the table is left untouched and an error returned. The same
// reader caveat as DeleteWhere applies.
func (t *Table) UpdateWhere(pred func(Row) bool, fn func(Row) Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pi := -1
	if t.pkIndex != nil {
		pi = t.schema.ColumnIndex(t.schema.PrimaryKey)
	}
	next := make([]Row, 0, len(t.rows))
	seenPK := map[Value]bool{}
	n := 0
	for _, r := range t.rows {
		if pred(r) {
			r = fn(r.Clone())
			n++
			if len(r) != len(t.schema.Columns) {
				return 0, fmt.Errorf("relational: table %s: update arity %d, want %d", t.schema.Name, len(r), len(t.schema.Columns))
			}
			for i, v := range r {
				if !v.IsNull() && v.Kind() != t.schema.Columns[i].Kind {
					return 0, fmt.Errorf("relational: table %s: column %s: updated %v, want %v",
						t.schema.Name, t.schema.Columns[i].Name, v.Kind(), t.schema.Columns[i].Kind)
				}
			}
		}
		if pi >= 0 {
			v := r[pi]
			if v.IsNull() {
				return 0, fmt.Errorf("relational: table %s: NULL primary key", t.schema.Name)
			}
			if seenPK[v] {
				return 0, fmt.Errorf("relational: table %s: duplicate primary key %v", t.schema.Name, v)
			}
			seenPK[v] = true
		}
		next = append(next, r)
	}
	if n == 0 {
		return 0, nil
	}
	t.rows = next
	t.version++
	t.reindexLocked()
	return n, nil
}

// reindexLocked rebuilds the primary-key map and every hash index from the
// current rows; callers hold t.mu.
func (t *Table) reindexLocked() {
	if t.pkIndex != nil {
		pi := t.schema.ColumnIndex(t.schema.PrimaryKey)
		t.pkIndex = make(map[Value]int, len(t.rows))
		for i, r := range t.rows {
			t.pkIndex[r[pi]] = i
		}
	}
	for col, idx := range t.indexes {
		t.indexes[col] = buildHashIdx(idx.col, t.rows)
	}
}

// BuildIndex builds (or rebuilds) a hash index on the named column. Once
// built, the index is maintained incrementally by Insert. Build indexes
// before serving reads: the build itself takes the write lock, but readers
// that resolved the rows snapshot earlier may probe a stale index.
func (t *Table) BuildIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("relational: table %s: no column %s", t.schema.Name, column)
	}
	t.indexes[column] = buildHashIdx(ci, t.rows)
	return nil
}

func buildHashIdx(col int, rows []Row) *hashIdx {
	idx := &hashIdx{col: col, buckets: map[Value][]int{}}
	for i, r := range rows {
		idx.buckets[r[col]] = append(idx.buckets[r[col]], i)
	}
	return idx
}

// HasIndex reports whether the named column has a hash index.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[column]
	return ok
}

// AppendLookup appends to dst the rows whose named column equals v and
// returns the extended slice. It appends nothing when the column has no index
// (see HasIndex). The appended rows must not be mutated.
func (t *Table) AppendLookup(dst []Row, column string, v Value) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[column]; ok {
		for _, o := range idx.buckets[v] {
			dst = append(dst, t.rows[o])
		}
	}
	return dst
}

// LookupPK returns the row whose primary key equals v, probing the
// uniqueness index maintained by Insert. The second result is false when the
// table has no primary key or no row carries that key. The returned row must
// not be mutated.
func (t *Table) LookupPK(v Value) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkIndex == nil {
		return nil, false
	}
	o, ok := t.pkIndex[v]
	if !ok {
		return nil, false
	}
	return t.rows[o], true
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
