// Package engine evaluates sqlast queries against a relational.Store.
//
// The executor supports exactly the SQL fragment the translators emit:
// SELECT-FROM-WHERE with conjunctive/disjunctive predicates, UNION ALL, and
// WITH [RECURSIVE] common table expressions evaluated to a fixpoint.
// Joins are executed left-deep in FROM order using hash joins on equality
// predicates, with single-source predicates pushed to the scans.
package engine

import (
	"sort"
	"strconv"
	"strings"

	"xmlsql/internal/relational"
)

// Result is the multiset of rows a query produced.
type Result struct {
	Cols []string
	Rows []relational.Row
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// SortedRows returns a copy of the rows in deterministic order.
func (r *Result) SortedRows() []relational.Row {
	out := make([]relational.Row, len(r.Rows))
	copy(out, r.Rows)
	sort.Slice(out, func(i, j int) bool { return rowLess(out[i], out[j]) })
	return out
}

func rowLess(a, b relational.Row) bool {
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

// MultisetEqual reports whether two results contain the same rows with the
// same multiplicities, ignoring row order and column names.
func (r *Result) MultisetEqual(o *Result) bool {
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	counts := make(map[string]int, len(r.Rows))
	for _, row := range r.Rows {
		counts[row.Key()]++
	}
	for _, row := range o.Rows {
		k := row.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// MultisetDiff describes how two results differ, for test failure messages.
// It returns a human-readable summary, or "" when equal.
func (r *Result) MultisetDiff(o *Result) string {
	type entry struct {
		row   relational.Row
		count int
	}
	counts := map[string]*entry{}
	for _, row := range r.Rows {
		k := row.Key()
		if e, ok := counts[k]; ok {
			e.count++
		} else {
			counts[k] = &entry{row: row, count: 1}
		}
	}
	for _, row := range o.Rows {
		k := row.Key()
		if e, ok := counts[k]; ok {
			e.count--
		} else {
			counts[k] = &entry{row: row, count: -1}
		}
	}
	var b strings.Builder
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := counts[k]
		if e.count == 0 {
			continue
		}
		if e.count > 0 {
			b.WriteString("only in left (x")
		} else {
			b.WriteString("only in right (x")
			e.count = -e.count
		}
		b.WriteString(strconv.Itoa(e.count))
		b.WriteString("): ")
		for i, v := range e.row {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Values returns the first column of every row, convenient for single-column
// query results.
func (r *Result) Values() []relational.Value {
	out := make([]relational.Value, 0, len(r.Rows))
	for _, row := range r.Rows {
		if len(row) > 0 {
			out = append(out, row[0])
		}
	}
	return out
}

// Strings returns the first column of every row rendered as Go strings
// (string values verbatim, others via Value.String), sorted.
func (r *Result) Strings() []string {
	out := make([]string, 0, len(r.Rows))
	for _, v := range r.Values() {
		if v.Kind() == relational.KindString {
			out = append(out, v.AsString())
		} else {
			out = append(out, v.String())
		}
	}
	sort.Strings(out)
	return out
}
