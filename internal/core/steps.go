package core

import (
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
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
	rel   string
	sels  map[string]relational.Value
	neqs  map[string][]relational.Value
	prev  []int // steps that can come just before this one
	start startKind
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
	into  map[int][]int // graph node -> the steps occurring at it
}

// route is one way up from a node to the nearest tuple node or path start
// above it: from is that tuple node, or the start node when start is set.
type route struct {
	from  int
	start startKind
	conds []schema.EdgeCond // top-down
}

// region restricts a graph to the nodes in() accepts; lead reports whether
// a node is a path start and with which lead conditions.
type region struct {
	g    *pathid.Graph
	in   func(int) bool
	lead func(int) ([]schema.EdgeCond, bool)
}

// routes lists the ways up from v inside the region: to each nearest tuple
// node above it, and to each path start on the way, v itself included.
func (r region) routes(v int) []route {
	var out []route
	onPath := map[int]bool{}
	var up func(x int, below []schema.EdgeCond)
	up = func(x int, below []schema.EdgeCond) {
		if lead, ok := r.lead(x); ok {
			kind := freeStart
			if x == r.g.Start() {
				kind = rootStart
			}
			out = append(out, route{from: x, start: kind, conds: append(append([]schema.EdgeCond(nil), lead...), below...)})
		}
		onPath[x] = true
		defer delete(onPath, x)
		for _, pe := range r.g.Parents(x) {
			if !r.in(pe.From) {
				continue
			}
			conds := below
			if pe.Cond != nil {
				conds = append([]schema.EdgeCond{*pe.Cond}, below...)
			}
			switch {
			case r.g.SchemaNode(pe.From).HasRelation():
				out = append(out, route{from: pe.From, conds: conds})
			case !onPath[pe.From]:
				up(pe.From, conds)
			}
		}
	}
	up(v, nil)
	return out
}

// steps builds the region's step graph over its tuple nodes.
func (r region) steps() *stepGraph {
	sg := &stepGraph{into: map[int][]int{}}
	var via []route // per step: the route it is reached over
	for _, n := range r.g.Nodes() {
		if !r.in(n.ID) || !r.g.SchemaNode(n.ID).HasRelation() {
			continue
		}
		own := translate.NodeConds(r.g, n.ID)
		for _, rt := range r.routes(n.ID) {
			sg.into[n.ID] = append(sg.into[n.ID], len(sg.steps))
			sg.steps = append(sg.steps, newStep(r.g.SchemaNode(n.ID).Relation, rt.conds, own, rt.start))
			via = append(via, rt)
		}
	}
	for i, rt := range via {
		if rt.start == noStart {
			sg.steps[i].prev = sg.into[rt.from]
		}
	}
	return sg
}

func newStep(rel string, route, own []schema.EdgeCond, start startKind) step {
	conds := append(append([]schema.EdgeCond(nil), route...), own...)
	return step{rel: rel, sels: condsToMap(conds), neqs: condsToNeqMap(conds), start: start}
}

// compatible is Conflicts' rule for one aligned occurrence: the same
// relation, and no column selected to two values or to an excluded one.
func compatible(a, b *step) bool {
	if a.rel != b.rel {
		return false
	}
	for col, va := range a.sels {
		if vb, ok := b.sels[col]; ok && !va.Equal(vb) {
			return false
		}
	}
	return !excludedBy(a.sels, b.neqs) && !excludedBy(b.sels, a.neqs)
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
	seen := map[pair]bool{}
	var stack []pair
	push := func(p pair) {
		if !seen[p] && compatible(&a.steps[p.i], &b.steps[p.j]) {
			seen[p] = true
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
		switch {
		case sa.start != noStart && sb.start != noStart && (p.div || !distinct):
			return true // both paths start here: one length
		case sa.start == freeStart && len(sb.prev) > 0, sb.start == freeStart && len(sa.prev) > 0:
			return true // the shorter path starts below the root
		}
		for _, i := range sa.prev {
			for _, j := range sb.prev {
				push(pair{i, j, distinct && (p.div || i != j)})
			}
		}
	}
	return false
}

// schemaSide is the product's step graph: every root-to-tuple path of the
// schema, with the query state at its end.
type schemaSide struct {
	p    *pathid.Graph
	sg   *stepGraph
	ends map[[2]string][]int
}

func newSchemaSide(p *pathid.Graph) *schemaSide {
	all := func(int) bool { return true }
	start := func(id int) ([]schema.EdgeCond, bool) { return nil, id == p.Start() }
	return &schemaSide{p: p, sg: region{g: p, in: all, lead: start}.steps(), ends: map[[2]string][]int{}}
}

// nonResultEnds lists the steps at tuple nodes of relation rel whose tuples
// the query does not return through column col.
func (ss *schemaSide) nonResultEnds(rel, col string) []int {
	k := [2]string{rel, col}
	if ends, ok := ss.ends[k]; ok {
		return ends
	}
	var ends []int
	for _, n := range ss.p.Nodes() {
		if sn := ss.p.SchemaNode(n.ID); sn.Relation == rel && !ss.inResult(n.ID, col) {
			ends = append(ends, ss.sg.into[n.ID]...)
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
	seen := map[int]bool{}
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
