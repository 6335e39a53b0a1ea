// Package engine evaluates sqlast queries against a relational.Store.
//
// The executor supports exactly the SQL fragment the translators emit:
// SELECT-FROM-WHERE with conjunctive/disjunctive predicates, UNION ALL, and
// WITH [RECURSIVE] common table expressions evaluated to a fixpoint.
// A query compiles once (compile.go) and then runs left-deep, parents first,
// by index probes or hash joins, with local predicates pushed to the scans.
package engine

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"xmlsql/internal/relational"
)

// Result is the multiset of rows a query produced. A row may be a window
// onto a stored row: never write into one, Clone it to own it.
type Result struct {
	Cols []string
	Rows []relational.Row
	// Work counts what producing the rows cost; Execute sets it.
	Work Work
}

// Prepared is a query evaluated up to each SELECT block's final projection.
// Its Work is final; AppendRows projects the blocks, in branch order, into
// the caller's slice, so a merge of several answers writes each row once.
type Prepared struct {
	Cols []string
	Work Work

	blocks []block
}

// block is one SELECT block's frame rows and the projection that turns each
// into an answer row; a block with no projection holds finished rows.
type block struct {
	rows  []relational.Row
	projs []operand
	// owned is set when the block built its row slice (a filter or a join),
	// so a lone block may be projected in place.
	owned bool
}

// Finished wraps an already projected result as a Prepared whose rows are
// appended as they are.
func Finished(res *Result) *Prepared {
	return &Prepared{Cols: res.Cols, Work: res.Work, blocks: []block{{rows: res.Rows}}}
}

// Len returns the number of answer rows.
func (p *Prepared) Len() int {
	n := 0
	for _, b := range p.blocks {
		n += len(b.rows)
	}
	return n
}

// AppendRows appends the answer rows to dst and returns the extended slice.
// With dst nil, a lone block of finished rows is returned as it is, and a
// lone block's projection rewrites the block's owned row slice in place (row
// i is read before slot i is written), so call it once.
func (p *Prepared) AppendRows(dst []relational.Row) []relational.Row {
	if dst == nil && len(p.blocks) == 1 {
		b := p.blocks[0]
		if b.projs == nil {
			return b.rows
		}
		if b.owned && b.rows != nil {
			dst = b.rows[:0]
		}
	}
	n := p.Len()
	if dst == nil {
		dst = make([]relational.Row, 0, n) // so Rows is never nil
	}
	dst = slices.Grow(dst, n)
	for _, b := range p.blocks {
		dst = b.appendTo(dst)
	}
	return dst
}

// appendTo appends the block's answer rows to dst. A projection of one
// ascending run of columns lo..hi-1 is a window onto each frame row: stored
// rows and join rows are never written, so the answer shares them instead of
// copying their values. Otherwise one arena holds every projected value;
// each row is a capacity-capped window onto it, so an append to one row
// copies instead of writing into its neighbour.
func (b block) appendTo(dst []relational.Row) []relational.Row {
	if b.projs == nil {
		return append(dst, b.rows...)
	}
	if lo, hi, ok := window(b.projs); ok {
		for _, row := range b.rows {
			dst = append(dst, row[lo:hi:hi])
		}
		return dst
	}
	w := len(b.projs)
	arena := make([]relational.Value, len(b.rows)*w)
	for i, row := range b.rows {
		out := arena[i*w : (i+1)*w : (i+1)*w]
		for j, p := range b.projs {
			out[j] = p.get(row)
		}
		dst = append(dst, out)
	}
	return dst
}

// Work is a query's deterministic work: it depends on the plan and the
// data, never on the machine, so two plans compare exactly.
type Work struct {
	// Scanned counts rows read in full from a table or CTE (an index
	// probe reads only its matches, counted as materialized).
	Scanned int
	// Examined counts rows a filter or join loop visited.
	Examined int
	// Materialized counts rows the query built: join outputs, projected
	// rows and recursive-CTE accumulation.
	Materialized int
}

// Total is the sum of the three counts.
func (w Work) Total() int { return w.Scanned + w.Examined + w.Materialized }

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
