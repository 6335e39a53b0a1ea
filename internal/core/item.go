package core

import (
	"sort"
	"strconv"
	"strings"

	"xmlsql/internal/pathid"
	"xmlsql/internal/schema"
	"xmlsql/internal/translate"
)

// item is one PathSet member: the current suffix region of the cross-product
// schema kept for one accepting node. For tree-shaped regions it is a simple
// path; for DAG/recursive regions it is a graph path (§5.2) — a subgraph
// with entry nodes. Growing "one level" follows the paper: first try the
// incoming edge annotation alone (the §4.3 optimization), then include the
// parent node; recursive components are absorbed whole.
type item struct {
	g      *pathid.Graph
	nodes  map[int]bool
	entry  map[int]*entryState
	result int // the accepting cross-product node

	resultRel string
	resultCol string

	w *walker // shared by the items of one translation

	// Derived from the region; grow clears them.
	sg   *stepGraph
	ends []int
	key  string
}

type entryState struct {
	lead      []schema.EdgeCond
	leadTried bool
}

func newItem(g *pathid.Graph, accept int, w *walker) (*item, error) {
	rel, col, err := g.Schema.Annot(g.Node(accept).Schema)
	if err != nil {
		return nil, err
	}
	return &item{
		g:         g,
		nodes:     map[int]bool{accept: true},
		entry:     map[int]*entryState{accept: {}},
		result:    accept,
		resultRel: rel,
		resultCol: col,
		w:         w,
	}, nil
}

// grow advances the item one level (Fig. 4 step 6 / Fig. 8 steps 6 and 13).
// Each entry first tries the incoming edge annotation alone (the §4.3
// optimization, when useLeadOpt is set), then includes every cross-product
// parent. Recursive components are absorbed over successive rounds: adding a
// component member makes its in-component parents entries, which the
// boundary recomputation then folds inward until the whole component is
// interior — converging to §5.2's "include the entire recursive component".
// It returns false when the item cannot grow further (every entry is the
// cross-product start).
func (it *item) grow(useLeadOpt bool) bool {
	it.sg, it.ends, it.key = nil, nil, ""
	grew := false
	entries := make([]int, 0, len(it.entry))
	for e := range it.entry {
		entries = append(entries, e)
	}
	sort.Ints(entries)

	for _, e := range entries {
		es := it.entry[e]
		parents := it.g.Parents(e)
		if len(parents) == 0 {
			continue // at the cross-product start; nothing above
		}
		// Stage a: the edge-annotation optimization — when the entry is
		// reached by exactly one edge and that edge carries a condition, the
		// condition alone may make the suffix safe, saving the parent join.
		if !es.leadTried {
			es.leadTried = true
			if useLeadOpt && len(parents) == 1 && parents[0].Cond != nil && len(es.lead) == 0 {
				es.lead = []schema.EdgeCond{*parents[0].Cond}
				grew = true
				continue
			}
		}
		// Stage b: include every cross-product parent (result elements can
		// reach the entry through any of them).
		delete(it.entry, e)
		for _, pe := range parents {
			if !it.nodes[pe.From] {
				it.nodes[pe.From] = true
				if _, ok := it.entry[pe.From]; !ok {
					it.entry[pe.From] = &entryState{}
				}
			}
		}
		grew = true
	}

	// Recompute entries: a node is an entry iff some cross-product parent
	// lies outside the region, or it is the start node. Nodes absorbed into
	// the interior lose entry status.
	for e := range it.entry {
		if !it.isBoundary(e) {
			delete(it.entry, e)
		}
	}
	if len(it.entry) == 0 {
		// Everything reachable is included; the start node is the entry.
		it.nodes[it.g.Start()] = true
		it.entry[it.g.Start()] = &entryState{leadTried: true}
	}
	return grew
}

func (it *item) isBoundary(id int) bool {
	if id == it.g.Start() {
		return true
	}
	for _, pe := range it.g.Parents(id) {
		if !it.nodes[pe.From] {
			return true
		}
	}
	return false
}

// linear reports whether the region is a simple path: one entry, every node
// with at most one child inside the region, no node revisits. Linear items
// are the tree case of §4 and are merged with BuildCombinedSelect.
func (it *item) linear() ([]int, bool) {
	if len(it.entry) != 1 {
		return nil, false
	}
	var start int
	for e := range it.entry {
		start = e
	}
	var seq []int
	cur := start
	seen := map[int]bool{}
	for {
		if seen[cur] {
			return nil, false // cycle
		}
		seen[cur] = true
		seq = append(seq, cur)
		var next []int
		for _, e := range it.g.Children(cur) {
			if it.nodes[e.To] {
				next = append(next, e.To)
			}
		}
		switch len(next) {
		case 0:
			if cur != it.result {
				return nil, false
			}
			if len(seq) != len(it.nodes) {
				return nil, false
			}
			return seq, true
		case 1:
			cur = next[0]
		default:
			return nil, false
		}
	}
}

// stepGraph returns the step graph of the item's entry-to-result paths and
// its end steps: the steps at the result node or, for a column-only result,
// at the nearest tuple node above it (once per route to it). A route from an
// entry with no tuple node on the way is a bare scan of the result's owning
// relation and ends at a step of its own.
func (it *item) stepGraph() (*stepGraph, []int) {
	if it.sg != nil {
		return it.sg, it.ends
	}
	it.w.g, it.w.it = it.g, it
	it.sg, it.ends = it.w.steps(), nil
	if it.g.SchemaNode(it.result).HasRelation() {
		it.ends = it.sg.appendInto(nil, it.result)
		return it.sg, it.ends
	}
	for _, rt := range it.w.routes(it.result) {
		if rt.start == noStart {
			it.ends = it.sg.appendInto(it.ends, rt.from)
			continue
		}
		it.ends = append(it.ends, len(it.sg.steps))
		it.sg.add(it.resultRel, rt.conds, nil, rt.start, rt.from)
	}
	return it.sg, it.ends
}

// templateKey renders the item's region as §5.1's template graph,
// independent of node ids: nodes are numbered in the order a walk up from
// the result meets them, each node's in-region parents ordered by their
// rendering (ties by id), and every node is written with its annotation,
// selections, entry lead conditions and parent edges. Equal keys mean
// isomorphic regions, which produce identical SQL and are emitted once.
func (it *item) templateKey() string {
	if it.key != "" {
		return it.key
	}
	label := func(id int) string {
		sn := it.g.SchemaNode(id)
		l := sn.Relation + "." + sn.Column + condList(translate.NodeConds(it.g, id))
		if es, ok := it.entry[id]; ok {
			l += "<" + condList(es.lead)
		}
		if id == it.g.Start() {
			l += "^"
		}
		return l
	}
	edgeCond := func(c *schema.EdgeCond) string {
		if c == nil {
			return "<nil>"
		}
		return c.String()
	}
	num := map[int]int{it.result: 0}
	order := []int{it.result}
	var b strings.Builder
	b.WriteString(it.resultRel + "." + it.resultCol)
	for k := 0; k < len(order); k++ {
		var ps []pathid.Edge
		for _, pe := range it.g.Parents(order[k]) {
			if it.nodes[pe.From] {
				ps = append(ps, pe)
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			li, lj := label(ps[i].From)+edgeCond(ps[i].Cond), label(ps[j].From)+edgeCond(ps[j].Cond)
			return li < lj || li == lj && ps[i].From < ps[j].From
		})
		b.WriteString("|" + label(order[k]) + "<-")
		for _, pe := range ps {
			if _, ok := num[pe.From]; !ok {
				num[pe.From] = len(order)
				order = append(order, pe.From)
			}
			b.WriteString(strconv.Itoa(num[pe.From]))
			if pe.Cond != nil {
				b.WriteString("[" + pe.Cond.String() + "]")
			}
			b.WriteString(",")
		}
	}
	it.key = b.String()
	return it.key
}

// condList renders conditions as "[c1 c2]".
func condList(conds []schema.EdgeCond) string {
	s := make([]string, len(conds))
	for i, c := range conds {
		s[i] = c.String()
	}
	return "[" + strings.Join(s, " ") + "]"
}

// pathSpec converts a linear item into the PathSpec consumed by the shared
// SQL generator.
func (it *item) pathSpec(seq []int, anchored bool) translate.PathSpec {
	var lead []schema.EdgeCond
	for _, es := range it.entry {
		lead = es.lead
	}
	return translate.PathSpec{Nodes: seq, LeadConds: lead, Anchored: anchored}
}
