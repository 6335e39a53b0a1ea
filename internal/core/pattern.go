// Package core implements the paper's contribution: XML-to-SQL query
// translation that exploits the "lossless from XML" integrity constraint.
// The translator prunes the cross-product schema produced by the PathId
// stage — replacing root-to-leaf join chains by the shortest suffixes whose
// SQL cannot return tuples of paths outside the query result (§4, §5) — and
// then generates SQL that merges combinable suffixes into single SELECT
// blocks with disjunctive conditions (§4.4).
package core

import (
	"sort"
	"strings"

	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
)

// Pattern abstracts the tuple-retrieval behaviour of SQL(p) for a (suffix)
// path p: the sequence of relations joined top-down and, per occurrence,
// the selection conditions known to hold. Two SQL queries can return the
// value of a common element only if their patterns conflict (§4.2). The
// pruning loops decide conflicts on step graphs, which stand for all of a
// region's patterns at once; Conflicts is the same decision for two single
// patterns.
type Pattern struct {
	// RelSeq is the paper's RelSeq(p), top-down.
	RelSeq []string
	// Sels[i] are the selection conditions on occurrence i, as column ->
	// value. Columns absent from the map are unconstrained ("any value in
	// the corresponding domain, including null, is allowed" — §4.4's
	// discussion of Figure 5).
	Sels []map[string]relational.Value
	// Neqs[i] are negative conditions on occurrence i (column -> excluded
	// values), contributed by unsatisfied predicate branches of the §6
	// extension. nil when the pattern has no negative knowledge.
	Neqs []map[string][]relational.Value
	// RootComplete marks patterns whose first occurrence is the document
	// root (a full root-to-node path, or a pruned suffix that grew all the
	// way up). Root tuples have no parent, so a root-complete pattern never
	// overlaps a longer one.
	RootComplete bool
}

// String renders the pattern for debugging and template keys.
func (p *Pattern) String() string {
	var b strings.Builder
	if p.RootComplete {
		b.WriteString("^")
	}
	for i, r := range p.RelSeq {
		if i > 0 {
			b.WriteString("->")
		}
		b.WriteString(r)
		if len(p.Sels[i]) > 0 || len(p.neqAt(i)) > 0 {
			cols := make([]string, 0, len(p.Sels[i]))
			for c := range p.Sels[i] {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			b.WriteString("{")
			for j, c := range cols {
				if j > 0 {
					b.WriteString(",")
				}
				b.WriteString(c)
				b.WriteString("=")
				b.WriteString(p.Sels[i][c].String())
			}
			neq := p.neqAt(i)
			ncols := make([]string, 0, len(neq))
			for c := range neq {
				ncols = append(ncols, c)
			}
			sort.Strings(ncols)
			for _, c := range ncols {
				for _, v := range neq[c] {
					if b.String()[b.Len()-1] != '{' {
						b.WriteString(",")
					}
					b.WriteString(c)
					b.WriteString("!=")
					b.WriteString(v.String())
				}
			}
			b.WriteString("}")
		}
	}
	return b.String()
}

// Conflicts reports whether the SQL queries of two patterns can return a
// common tuple — the paper's conflict relation (§4.2), aligned at the last
// occurrence:
//
//   - one RelSeq must be a suffix of the other ("if each sequence has a join
//     not present in the other, they will not generate common results");
//   - no aligned occurrence may carry contradictory selections on the same
//     column (an unspecified column is compatible with anything);
//   - a root-complete pattern shorter than the other cannot conflict: its
//     result tuples' ancestor chains end at the document root, so the longer
//     pattern's extra joins can never be satisfied.
func Conflicts(p, q *Pattern) bool {
	a, b := p.steps(), q.steps()
	return overlaps(a, b, []int{len(a.steps) - 1}, []int{len(b.steps) - 1}, false)
}

// steps is the pattern as a one-path step graph.
func (p *Pattern) steps() *stepGraph {
	sg := &stepGraph{at: []int32{0}}
	for i, rel := range p.RelSeq {
		var conds []schema.EdgeCond
		for col, v := range p.Sels[i] {
			conds = append(conds, schema.EdgeCond{Column: col, Value: v})
		}
		for col, vs := range p.neqAt(i) {
			for _, v := range vs {
				conds = append(conds, schema.EdgeCond{Column: col, Value: v, Neq: true})
			}
		}
		start := freeStart
		if i > 0 {
			start = noStart
		} else if p.RootComplete {
			start = rootStart
		}
		sg.add(rel, nil, conds, start, i-1)
		sg.at = append(sg.at, int32(i+1)) // one step per occurrence
	}
	return sg
}

func (p *Pattern) neqAt(i int) map[string][]relational.Value {
	if p.Neqs == nil || i >= len(p.Neqs) {
		return nil
	}
	return p.Neqs[i]
}
