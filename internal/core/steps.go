package core

import (
	"slices"
	"strings"

	"xmlsql/internal/pathid"
	"xmlsql/internal/schema"
	"xmlsql/internal/translate"
)

// A step is one tuple occurrence of a retrieval path as reached over one
// route: from the previous tuple node through unannotated nodes, or from the
// node where the path starts. Its selections are that route's edge
// conditions plus the node's own. A step graph holds every path of a region,
// or of the whole product, at once: following prev links backward from an
// end step spells a pattern bottom-up, so graphs with cycles stand for their
// infinitely many patterns in finite space.
type step struct {
	rel string
	// The step's selections are conds[lo:mid] of its graph, one per column,
	// and its excluded values conds[mid:hi], both sorted by column.
	lo, mid, hi int32
	from        int32 // the graph node whose steps can come just before this one
	start       startKind
}

// startKind says whether a path can begin at a step, and whether it then
// begins at the document root (the pattern is root-complete).
type startKind uint8

const (
	noStart startKind = iota
	freeStart
	rootStart
)

type stepGraph struct {
	steps []step
	at    []int32            // the steps occurring at graph node v are at[v]..at[v+1]-1
	conds []*schema.EdgeCond // the steps' selections, in the schema or the graph
}

// route is one way up from a node to the nearest tuple node or path start
// above it: from is that tuple node, or the start node when start is set.
type route struct {
	from  int
	start startKind
	conds []*schema.EdgeCond // top-down
}

// walker lists routes and builds step graphs over a region: an item's
// region, whose path starts are the item's entries, or the whole graph (it
// nil), whose one path start is the start node. Its buffers are reused from
// walk to walk, so a route list is good until the next call of routes.
type walker struct {
	g     *pathid.Graph
	it    *item
	out   []route
	path  []int              // the nodes on the way up
	below []*schema.EdgeCond // the edges' conditions met, bottom-up, nil for none
	conds []*schema.EdgeCond // backs the routes' conditions
}

func (w *walker) in(v int) bool { return w.it == nil || w.it.nodes[v] }

func (w *walker) lead(v int) ([]schema.EdgeCond, bool) {
	if w.it == nil {
		return nil, v == w.g.Start()
	}
	if es, ok := w.it.entry[v]; ok {
		return es.lead, true
	}
	return nil, false
}

// routes lists the ways up from v inside the region: to each nearest tuple
// node above it, and to each path start on the way, v itself included.
func (w *walker) routes(v int) []route {
	w.out, w.conds = w.out[:0], w.conds[:0]
	w.up(v)
	return w.out
}

func (w *walker) emit(from int, start startKind, lead []schema.EdgeCond) {
	n := len(w.conds)
	for i := range lead {
		w.conds = append(w.conds, &lead[i])
	}
	for i := len(w.below) - 1; i >= 0; i-- {
		if c := w.below[i]; c != nil {
			w.conds = append(w.conds, c)
		}
	}
	w.out = append(w.out, route{from, start, w.conds[n:len(w.conds):len(w.conds)]})
}

func (w *walker) up(x int) {
	if lead, ok := w.lead(x); ok {
		kind := freeStart
		if x == w.g.Start() {
			kind = rootStart
		}
		w.emit(x, kind, lead)
	}
	w.path = append(w.path, x)
	for _, pe := range w.g.Parents(x) {
		if !w.in(pe.From) {
			continue
		}
		w.below = append(w.below, pe.Cond)
		switch {
		case w.g.SchemaNode(pe.From).HasRelation():
			w.emit(pe.From, noStart, nil)
		case !slices.Contains(w.path, pe.From):
			w.up(pe.From)
		}
		w.below = w.below[:len(w.below)-1]
	}
	w.path = w.path[:len(w.path)-1]
}

// steps builds the region's step graph over its tuple nodes.
func (w *walker) steps() *stepGraph {
	nodes := w.g.Nodes()
	size := len(nodes) // most nodes of a region are tuple nodes with one route
	if w.it != nil {
		size = len(w.it.nodes)
	}
	sg := &stepGraph{steps: make([]step, 0, size), at: make([]int32, len(nodes)+1)}
	for v := range nodes {
		sg.at[v] = int32(len(sg.steps))
		if !w.in(v) || !w.g.SchemaNode(v).HasRelation() {
			continue
		}
		own := translate.NodeConds(w.g, v)
		for _, rt := range w.routes(v) {
			sg.add(w.g.SchemaNode(v).Relation, rt.conds, own, rt.start, rt.from)
		}
	}
	sg.at[len(nodes)] = int32(len(sg.steps))
	return sg
}

// prev returns the range of the steps that can come just before s: the
// steps at the graph node its route comes from, which are numbered
// consecutively, and none where a path starts.
func (sg *stepGraph) prev(s *step) (int, int) {
	if s.start != noStart {
		return 0, 0
	}
	return int(sg.at[s.from]), int(sg.at[s.from+1])
}

// appendInto appends the steps occurring at graph node v to out.
func (sg *stepGraph) appendInto(out []int, v int) []int {
	for i := sg.at[v]; i < sg.at[v+1]; i++ {
		out = append(out, int(i))
	}
	return out
}

// add appends a step whose selections fold a route's conditions and the
// node's own, sorted. A later selection of a column replaces an earlier
// one: conflicting ones cannot arise from valid schemas (the shredder
// rejects them).
func (sg *stepGraph) add(rel string, route []*schema.EdgeCond, own []schema.EdgeCond, start startKind, from int) {
	n := len(sg.conds)
	sg.conds = append(sg.conds, route...)
	for i := range own {
		sg.conds = append(sg.conds, &own[i])
	}
	conds := sg.conds[n:]
	slices.SortStableFunc(conds, func(a, b *schema.EdgeCond) int {
		switch {
		case a.Neq == b.Neq:
			return strings.Compare(a.Column, b.Column)
		case a.Neq:
			return 1 // selections first
		}
		return -1
	})
	m, k := 0, 0 // conds[:k] are the selections; the last of each column moves to conds[:m]
	for ; k < len(conds) && !conds[k].Neq; k++ {
		if k+1 == len(conds) || conds[k+1].Neq || conds[k+1].Column != conds[k].Column {
			conds[m] = conds[k]
			m++
		}
	}
	sg.conds = sg.conds[:n+m+copy(conds[m:], conds[k:])]
	sg.steps = append(sg.steps, step{rel: rel, lo: int32(n), mid: int32(n + m), hi: int32(len(sg.conds)), from: int32(from), start: start})
}

// compatible is Conflicts' rule for the aligned occurrences a.steps[i] and
// b.steps[j]: the same relation, and no column selected to two values or to
// an excluded one.
func compatible(a, b *stepGraph, i, j int) bool {
	sa, sb := &a.steps[i], &b.steps[j]
	as, an := a.conds[sa.lo:sa.mid], a.conds[sa.mid:sa.hi]
	bs, bn := b.conds[sb.lo:sb.mid], b.conds[sb.mid:sb.hi]
	return sa.rel == sb.rel && !clashes(as, bs, false) && !clashes(as, bn, true) && !clashes(bs, an, true)
}

// clashes reports whether sels selects a column to another value than a
// selection of other does (neq unset) or to a value other excludes (neq
// set). Both lists are sorted by column, and sels has one entry per column.
func clashes(sels, other []*schema.EdgeCond, neq bool) bool {
	i := 0
	for _, o := range other {
		for i < len(sels) && sels[i].Column < o.Column {
			i++
		}
		if i < len(sels) && sels[i].Column == o.Column && sels[i].Value.Equal(o.Value) == neq {
			return true
		}
	}
	return false
}

// overlaps decides exactly whether a path of a ending at an aEnds step and
// a path of b ending at a bEnds step have conflicting patterns: aligned at
// their last occurrences, each of the shorter path's occurrences is
// compatible with the longer path's, and the shorter path is not
// root-complete unless both have one length. It walks both step graphs
// backward in lockstep, visiting each pair of steps at most once per
// divergence bit, so it costs O(|a|·|b|) and ends on cycles. With distinct
// set, a and b are one graph and the two paths must be different routes:
// they diverge where they take different steps, or where one ends first.
func overlaps(a, b *stepGraph, aEnds, bEnds []int, distinct bool) bool {
	type pair struct {
		i, j int
		div  bool
	}
	if len(aEnds) == 0 || len(bEnds) == 0 {
		return false
	}
	seen := make([]bool, 2*len(a.steps)*len(b.steps)) // by (i, j, div)
	var stack []pair
	push := func(p pair) {
		k := 2 * (p.i*len(b.steps) + p.j)
		if p.div {
			k++
		}
		if !seen[k] && compatible(a, b, p.i, p.j) {
			seen[k] = true
			stack = append(stack, p)
		}
	}
	for x, i := range aEnds {
		for y, j := range bEnds {
			push(pair{i, j, distinct && x != y})
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sa, sb := &a.steps[p.i], &b.steps[p.j]
		alo, ahi := a.prev(sa)
		blo, bhi := b.prev(sb)
		switch {
		case sa.start != noStart && sb.start != noStart && (p.div || !distinct):
			return true // both paths start here: one length
		case sa.start == freeStart && bhi > blo, sb.start == freeStart && ahi > alo:
			return true // the shorter path starts below the root
		}
		for i := alo; i < ahi; i++ {
			for j := blo; j < bhi; j++ {
				push(pair{i, j, distinct && (p.div || i != j)})
			}
		}
	}
	return false
}

// schemaSide is the product's step graph: every root-to-tuple path of the
// schema, with the query state at its end. It is built when a relation
// first has a tuple outside the result; until then no path can conflict.
type schemaSide struct {
	p    *pathid.Graph
	sg   *stepGraph
	ends map[[2]string][]int
}

// nonResultEnds lists the steps at tuple nodes of relation rel whose tuples
// the query does not return through column col.
func (ss *schemaSide) nonResultEnds(rel, col string) []int {
	k := [2]string{rel, col}
	if ends, ok := ss.ends[k]; ok {
		return ends
	}
	var ends []int
	for v := range ss.p.Nodes() {
		if sn := ss.p.SchemaNode(v); sn.Relation == rel && !ss.inResult(v, col) {
			if ss.sg == nil {
				ss.sg = (&walker{g: ss.p}).steps()
			}
			ends = ss.sg.appendInto(ends, v)
		}
	}
	ss.ends[k] = ends
	return ends
}

// inResult reports whether the query returns column col of the tuples of
// product node v: v's own annotation is col and v accepts, or an accepting
// column-only leaf below v (through unannotated structural nodes, so its
// value lands in v's tuple) stores col.
func (ss *schemaSide) inResult(v int, col string) bool {
	own := ss.p.SchemaNode(v).Column
	if own == "" {
		own = schema.IDColumn
	}
	if own == col && ss.p.Node(v).Accepting {
		return true
	}
	var seen map[int]bool // made on the first unannotated node
	var down func(x int) bool
	down = func(x int) bool {
		for _, e := range ss.p.Children(x) {
			m := ss.p.SchemaNode(e.To)
			switch {
			case m.HasRelation():
				// its values belong to a different tuple
			case m.Column != "":
				if m.Column == col && ss.p.Node(e.To).Accepting {
					return true
				}
			case !seen[e.To]:
				if seen == nil {
					seen = map[int]bool{}
				}
				seen[e.To] = true
				if down(e.To) {
					return true
				}
			}
		}
		return false
	}
	return down(v)
}
