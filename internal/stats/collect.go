package stats

import (
	"sort"

	"xmlsql/internal/relational"
)

// CollectStore scans every table of an in-memory store and returns a full
// statistics snapshot. One pass per relation: row count, per-column distinct
// count, null count, and a value histogram while the column stays within
// HistogramCap distinct values.
func CollectStore(store *relational.Store) *Stats {
	s := &Stats{Relations: map[string]*TableStats{}, Version: store.Version()}
	for _, name := range store.TableNames() {
		ts := collectTable(store.Table(name)).stats()
		s.Relations[name] = ts
		s.TotalRows += ts.Rows
	}
	return s
}

// CollectRows computes statistics for one relation from its column names and
// rows. It is the shared kernel behind CollectStore, the live Tracker and
// Backend-generic collection (backend.CollectStats feeds it the rows of a
// SELECT * probe), so any row source — in-memory store, fake DB, external
// engine — yields identical statistics.
func CollectRows(relName string, cols []string, rows []relational.Row) *TableStats {
	tc := newTableCounts(relName, cols)
	tc.add(rows)
	return tc.stats()
}

func collectTable(t *relational.Table) *tableCounts {
	cols := make([]string, len(t.Schema().Columns))
	for i, c := range t.Schema().Columns {
		cols[i] = c.Name
	}
	tc := newTableCounts(t.Schema().Name, cols)
	tc.add(t.Rows())
	return tc
}

// tableCounts is the exact state one relation's statistics derive from: the
// row count and, per column, the NULL count and the full value→count
// multiset. Keeping the whole multiset (not just HistogramCap buckets) is
// what lets rows be removed as well as added with every derived figure
// staying exact, including a column crossing HistogramCap in either
// direction.
type tableCounts struct {
	relation string
	cols     []string
	rows     int64
	nulls    []int64
	values   []map[relational.Value]int64
}

func newTableCounts(relation string, cols []string) *tableCounts {
	tc := &tableCounts{relation: relation, cols: cols,
		nulls: make([]int64, len(cols)), values: make([]map[relational.Value]int64, len(cols))}
	for i := range tc.values {
		tc.values[i] = map[relational.Value]int64{}
	}
	return tc
}

func (tc *tableCounts) add(rows []relational.Row) {
	tc.rows += int64(len(rows))
	for _, row := range rows {
		for i := 0; i < len(tc.cols) && i < len(row); i++ {
			if v := row[i]; v.IsNull() {
				tc.nulls[i]++
			} else {
				tc.values[i][v]++
			}
		}
	}
}

// remove takes out rows that were added before.
func (tc *tableCounts) remove(rows []relational.Row) {
	tc.rows -= int64(len(rows))
	for _, row := range rows {
		for i := 0; i < len(tc.cols) && i < len(row); i++ {
			v := row[i]
			if v.IsNull() {
				tc.nulls[i]--
			} else if m := tc.values[i]; m[v] <= 1 {
				delete(m, v)
			} else {
				m[v]--
			}
		}
	}
}

// stats derives the relation's immutable, fingerprinted statistics.
func (tc *tableCounts) stats() *TableStats {
	ts := &TableStats{Relation: tc.relation, Rows: tc.rows, Columns: make(map[string]*ColumnStats, len(tc.cols))}
	for i, name := range tc.cols {
		m := tc.values[i]
		cs := &ColumnStats{Name: name, Distinct: int64(len(m)), Nulls: tc.nulls[i]}
		if len(m) > 0 && len(m) <= HistogramCap {
			cs.Histogram = make(map[string]int64, len(m))
			for v, n := range m {
				cs.Histogram[v.Key()] = n
			}
		}
		ts.Columns[name] = cs
	}
	ts.seal()
	return ts
}

// Merge folds per-relation statistics (e.g. collected one probe at a time
// over a Backend) into one snapshot with the given version.
func Merge(version uint64, tables []*TableStats) *Stats {
	s := &Stats{Relations: map[string]*TableStats{}, Version: version}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Relation < tables[j].Relation })
	for _, t := range tables {
		s.Relations[t.Relation] = t
		s.TotalRows += t.Rows
	}
	return s
}
