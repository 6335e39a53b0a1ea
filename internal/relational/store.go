package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Store is a catalog of named tables — the relational database instance into
// which XML documents are shredded.
//
// The catalog is guarded by an RWMutex so table resolution is safe from
// concurrent query goroutines while shredding (which creates tables) runs in
// another phase or another goroutine; per-table row access has its own lock,
// see Table.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: map[string]*Table{}}
}

// CreateTable creates a table from the given schema. It fails if a table of
// that name already exists.
func (s *Store) CreateTable(schema *TableSchema) (*Table, error) {
	if schema.Name == "" {
		return nil, fmt.Errorf("relational: empty table name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[schema.Name]; exists {
		return nil, fmt.Errorf("relational: table %s already exists", schema.Name)
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("relational: table %s: no columns", schema.Name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("relational: table %s: empty column name", schema.Name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relational: table %s: duplicate column %s", schema.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if schema.PrimaryKey != "" && !schema.HasColumn(schema.PrimaryKey) {
		return nil, fmt.Errorf("relational: table %s: primary key %s is not a column", schema.Name, schema.PrimaryKey)
	}
	t := NewTable(schema)
	s.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

// TableNames returns all table names in sorted order.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// DropAllRows clears the contents of every table but keeps the catalog. The
// fresh tables continue the old ones' version counters, so a table's version
// never repeats and Version stays strictly monotone.
func (s *Store) DropAllRows() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, t := range s.tables {
		fresh := NewTable(t.schema)
		fresh.version = t.Version() + 1
		s.tables[name] = fresh
	}
}

// Dump renders the whole store as text (deterministic ordering), for CLI
// output and golden tests.
func (s *Store) Dump() string {
	var b strings.Builder
	for _, name := range s.TableNames() {
		t := s.Table(name)
		fmt.Fprintf(&b, "TABLE %s (", name)
		for i, c := range t.schema.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
		}
		fmt.Fprintf(&b, ") [%d rows]\n", t.Len())
		for _, r := range t.SortedRows() {
			b.WriteString("  (")
			for i, v := range r {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.String())
			}
			b.WriteString(")\n")
		}
	}
	return b.String()
}

// BuildJoinIndexes creates hash indexes on the named column of every table
// that has it — typically "parentid", the join column of every translated
// query. The engine's index-probe path uses them automatically.
func (s *Store) BuildJoinIndexes(column string) error {
	for _, name := range s.TableNames() {
		t := s.Table(name)
		if !t.Schema().HasColumn(column) {
			continue
		}
		if err := t.BuildIndex(column); err != nil {
			return err
		}
	}
	return nil
}

// Version aggregates the mutation counters of every table (plus the table
// count, so creating a table also changes it). Statistics snapshots record
// it at collection time; comparing against the live value detects staleness
// without scanning any rows.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	v := uint64(len(tables))
	for _, t := range tables {
		v += t.Version()
	}
	return v
}

// TotalRows returns the number of rows across all tables.
func (s *Store) TotalRows() int {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	n := 0
	for _, t := range tables {
		n += t.Len()
	}
	return n
}
