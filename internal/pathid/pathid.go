// Package pathid implements the PathId stage of XML-to-SQL translation
// (§3.4, from [9]): the cross-product of the schema graph with the query
// DFA, trimmed to the nodes that lie on some root-to-accepting path. The
// resulting cross-product schema S_CP compactly represents every schema path
// matching the query, even when there are exponentially or infinitely many.
package pathid

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"xmlsql/internal/pathexpr"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
)

// Node is one cross-product node: a (schema node, DFA state) pair. The
// paper labels these with pairs such as "(12,3)"; Figure 2 shows them.
type Node struct {
	ID        int
	Schema    schema.NodeID
	State     int
	Accepting bool
	// PredConds are the selections contributed by a step predicate on this
	// node's label (the predicate extension): "col='v'" on the satisfied
	// branch, "col!='v'" on the surviving unsatisfied branch. They apply to
	// the node's own relation tuple, like schema node conditions.
	PredConds []schema.EdgeCond
}

// Edge is a cross-product edge; Cond is inherited from the schema edge.
type Edge struct {
	From int
	To   int
	Cond *schema.EdgeCond
}

// Graph is the cross-product schema S_CP.
type Graph struct {
	Schema *schema.Schema
	Query  *pathexpr.Path

	nodes []Node
	// children holds the edges grouped by From and parents the same edges
	// grouped by To, both in link order; node i's run starts at
	// childAt[i] (parentAt[i]) and ends at the next node's.
	children, parents []Edge
	childAt, parentAt []int
	start             int   // CP node of the schema root, or -1 when nothing matches
	accepts           []int // accepting node ids, sorted
	product           *Graph
}

// Empty reports whether no schema path matches the query.
func (g *Graph) Empty() bool { return g.start < 0 }

// Start returns the cross-product node of the schema root.
func (g *Graph) Start() int { return g.start }

// Nodes returns all cross-product nodes in id order. The slice must not be
// mutated.
func (g *Graph) Nodes() []Node { return g.nodes }

// Node returns the node with the given id.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// Children returns the outgoing edges of a node.
func (g *Graph) Children(id int) []Edge {
	return g.children[g.childAt[id]:g.childAt[id+1]:g.childAt[id+1]]
}

// Parents returns the incoming edges of a node.
func (g *Graph) Parents(id int) []Edge {
	return g.parents[g.parentAt[id]:g.parentAt[id+1]:g.parentAt[id+1]]
}

// Accepting returns the ids of accepting nodes (the query's result nodes).
func (g *Graph) Accepts() []int { return g.accepts }

// SchemaNode returns the underlying schema node of a cross-product node.
func (g *Graph) SchemaNode(id int) *schema.Node { return g.Schema.Node(g.nodes[id].Schema) }

// Product returns the product before trimming: every pair reachable from
// the root pair, including pairs in dead DFA states. Its paths from Start
// are all of the schema's root-to-node paths, each node paired with the
// query state reached there, so it answers "which schema paths end at a
// tuple the query does not return" in finite space even for recursive
// schemas. The product of a product is nil.
func (g *Graph) Product() *Graph { return g.product }

func (g *Graph) add(n Node) int {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	if n.Accepting {
		g.accepts = append(g.accepts, n.ID)
	}
	return n.ID
}

// link indexes the graph's edges, given grouped by From in link order.
func (g *Graph) link(edges []Edge) {
	g.children, g.parents = edges, slices.Clone(edges)
	slices.SortStableFunc(g.parents, func(a, b Edge) int { return a.To - b.To })
	g.childAt, g.parentAt = make([]int, len(g.nodes)+1), make([]int, len(g.nodes)+1)
	for _, e := range edges {
		g.childAt[e.From+1]++
		g.parentAt[e.To+1]++
	}
	for i := range g.nodes {
		g.childAt[i+1] += g.childAt[i]
		g.parentAt[i+1] += g.parentAt[i]
	}
}

// Build runs the PathId stage: it products the schema against the query DFA
// starting at the schema root and keeps exactly the pairs that are reachable
// from the root pair and co-reachable to an accepting pair.
//
// Step predicates (the §6 extension) enrich the product: a node whose label
// carries a predicate splits into a satisfied branch (selection col='v' on
// the node's tuple, where col is the value column storing the predicate
// child) and an unsatisfied branch (col!='v'); branches that cannot reach an
// accepting pair are trimmed as usual. A pair in a dead state (no accepting
// state reachable) is expanded without predicate branching, since no branch
// can change its outcome; such pairs are keyed by the predicate branch that
// entered the dead state, so they never make a query ambiguous.
func Build(s *schema.Schema, q *pathexpr.Path) (*Graph, error) {
	root := s.Root()
	if q.PredForLabel(s.Node(root).Label) != nil {
		return nil, fmt.Errorf("pathid: predicate on the document root step is not supported")
	}
	dfa := pathexpr.BuildPredDFA(q)

	syms := dfa.Intern(s.NumLabels(), s.LabelID) // by schema label id

	// index holds 1 + the product node of (schema node, state), at
	// sn*states+st; a dead state entered through a predicate branch is keyed
	// by that branch too, in the side map.
	states := dfa.NumStates()
	index := make([]int32, s.NumNodes()*states)
	type deadKey struct {
		sn schema.NodeID
		st int
		pc schema.EdgeCond
	}
	deadIndex := map[deadKey]int32{}
	p := &Graph{Schema: s, Query: q, nodes: make([]Node, 0, 2*s.NumNodes())}
	edges := make([]Edge, 0, 2*s.NumNodes())

	add := func(sn schema.NodeID, st int, conds []schema.EdgeCond) (int, error) {
		slot := &index[int(sn)*states+st]
		var dk deadKey
		if dfa.Dead(st) && len(conds) > 0 {
			dk = deadKey{sn: sn, st: st, pc: conds[0]}
			id := deadIndex[dk]
			slot = &id
		}
		if *slot > 0 {
			id := int(*slot - 1)
			if !schema.SameConds(p.nodes[id].PredConds, conds) {
				return 0, fmt.Errorf("pathid: ambiguous predicate query: node %s reached with contradictory predicate branches", s.Node(sn).Name)
			}
			return id, nil
		}
		id := p.add(Node{Schema: sn, State: st, Accepting: dfa.Accepting(st), PredConds: conds})
		*slot = int32(id + 1)
		if dk.pc.Column != "" {
			deadIndex[dk] = *slot
		}
		return id, nil
	}
	// step adds the product node entered from node from over schema edge e
	// in state st, with the predicate branch conds, and links it.
	var err error
	step := func(from int, e schema.Edge, st int, conds []schema.EdgeCond) {
		to, aerr := add(e.To, st, conds)
		edges = append(edges, Edge{From: from, To: to, Cond: e.Cond})
		err = cmp.Or(err, aerr) // the first error
	}

	_, _ = add(root, dfa.Next(dfa.Start(), syms[s.NodeLabelID(root)].Unsat), nil) // the first node: no conflict
	for work := 0; work < len(p.nodes); work++ {
		st := p.nodes[work].State
		for _, e := range s.Node(p.nodes[work].Schema).Children() {
			if err != nil {
				return nil, err
			}
			ls := syms[s.NodeLabelID(e.To)]
			unsat := dfa.Next(st, ls.Unsat)
			col := ""
			if ls.Pred != nil && !dfa.Dead(st) {
				if col, err = s.PredColumn(e.To, ls.Pred.Child); err != nil {
					return nil, err
				}
			}
			if col == "" {
				// No predicate, a dead state, or a node the schema gives no
				// such child: elements never satisfy it, and no selection
				// is needed.
				step(work, e, unsat, nil)
				continue
			}
			sat := dfa.Next(st, ls.Sat)
			if sat == unsat {
				return nil, fmt.Errorf("pathid: ambiguous predicate query: satisfaction of %s does not affect matching at %s", ls.Pred, s.Node(e.To).Name)
			}
			val := relational.String(ls.Pred.Value)
			conds := []schema.EdgeCond{{Column: col, Value: val}, {Column: col, Value: val, Neq: true}}
			step(work, e, sat, conds[:1:1])
			step(work, e, unsat, conds[1:])
		}
	}
	if err != nil {
		return nil, err
	}
	p.link(edges)
	g := &Graph{Schema: s, Query: q, start: -1, product: p}

	// Co-reachability: keep pairs from which an accepting pair is reachable
	// (accepting pairs keep themselves).
	keep := make([]bool, len(p.nodes))
	stack := append([]int(nil), p.accepts...)
	for _, i := range stack {
		keep[i] = true
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.Parents(i) {
			if !keep[e.From] {
				keep[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	if !keep[0] {
		return g, nil // empty result
	}

	// Renumber kept nodes.
	newID := make([]int, len(p.nodes))
	g.nodes = make([]Node, 0, len(p.nodes))
	for i, n := range p.nodes {
		newID[i] = -1
		if keep[i] {
			newID[i] = g.add(n)
		}
	}
	edges = make([]Edge, 0, len(p.children))
	for _, e := range p.children {
		if f, t := newID[e.From], newID[e.To]; f >= 0 && t >= 0 {
			edges = append(edges, Edge{From: f, To: t, Cond: e.Cond})
		}
	}
	g.link(edges)
	g.start = newID[0]

	// Every accepting node must have a retrievable value.
	for _, id := range g.accepts {
		if _, _, err := s.Annot(g.nodes[id].Schema); err != nil {
			return nil, fmt.Errorf("pathid: query %s matches node %s which has no value annotation: %v",
				q, s.Node(g.nodes[id].Schema).Name, err)
		}
	}
	return g, nil
}

// String renders the cross-product graph for debugging, in the style of the
// paper's Figure 2 node labels "(schema,state)".
func (g *Graph) String() string {
	var b strings.Builder
	if g.Empty() {
		return "(empty cross-product)\n"
	}
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "(%s,%d)", g.Schema.Node(n.Schema).Name, n.State)
		if n.Accepting {
			b.WriteString("*")
		}
		if n.ID == g.start {
			b.WriteString(" <root>")
		}
		b.WriteString(" ->")
		for _, e := range g.Children(n.ID) {
			c := g.nodes[e.To]
			fmt.Fprintf(&b, " (%s,%d)", g.Schema.Node(c.Schema).Name, c.State)
			if e.Cond != nil {
				fmt.Fprintf(&b, "[%s]", e.Cond)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// EnumeratePaths lists every root-to-accepting path of the cross-product
// graph as sequences of cross-product node ids, up to the given limit. For
// recursive schemas the path set is infinite; cycles are unrolled at most
// maxCycleVisits times per node. Used by the tree translator and by tests;
// the DAG/recursive translators work on the graph directly.
func (g *Graph) EnumeratePaths(limit, maxCycleVisits int) ([][]int, bool) {
	if g.Empty() {
		return nil, true
	}
	var out [][]int
	complete := true
	visits := make([]int, len(g.nodes))
	var cur []int
	var rec func(id int) bool // returns false when the limit was hit
	rec = func(id int) bool {
		if visits[id] >= maxCycleVisits {
			complete = false
			return true
		}
		visits[id]++
		cur = append(cur, id)
		defer func() { visits[id], cur = visits[id]-1, cur[:len(cur)-1] }()
		if g.nodes[id].Accepting {
			if len(out) >= limit {
				complete = false
				return false
			}
			out = append(out, append([]int(nil), cur...))
		}
		for _, e := range g.Children(id) {
			if !rec(e.To) {
				return false
			}
		}
		return true
	}
	rec(g.start)
	return out, complete
}
