// Package pathid implements the PathId stage of XML-to-SQL translation
// (§3.4, from [9]): the cross-product of the schema graph with the query
// DFA, trimmed to the nodes that lie on some root-to-accepting path. The
// resulting cross-product schema S_CP compactly represents every schema path
// matching the query, even when there are exponentially or infinitely many.
package pathid

import (
	"fmt"
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

	nodes    []*Node
	children [][]Edge
	parents  [][]Edge
	start    int   // CP node of the schema root, or -1 when nothing matches
	accepts  []int // accepting node ids, sorted
	product  *Graph
}

// Empty reports whether no schema path matches the query.
func (g *Graph) Empty() bool { return g.start < 0 }

// Start returns the cross-product node of the schema root.
func (g *Graph) Start() int { return g.start }

// Nodes returns all cross-product nodes in id order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Node returns the node with the given id.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Children returns the outgoing edges of a node.
func (g *Graph) Children(id int) []Edge { return g.children[id] }

// Parents returns the incoming edges of a node.
func (g *Graph) Parents(id int) []Edge { return g.parents[id] }

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

func (g *Graph) add(n *Node) {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.children = append(g.children, nil)
	g.parents = append(g.parents, nil)
	if n.Accepting {
		g.accepts = append(g.accepts, n.ID)
	}
}

func (g *Graph) link(from, to int, cond *schema.EdgeCond) {
	e := Edge{From: from, To: to, Cond: cond}
	g.children[from] = append(g.children[from], e)
	g.parents[to] = append(g.parents[to], e)
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
	dfa := pathexpr.BuildPredDFA(q)
	g := &Graph{Schema: s, Query: q, start: -1}

	if q.PredForLabel(s.Node(s.Root()).Label) != nil {
		return nil, fmt.Errorf("pathid: predicate on the document root step is not supported")
	}

	deadStates := map[int]bool{}
	dead := func(st int) bool {
		d, ok := deadStates[st]
		if !ok {
			d = dfa.Dead(st)
			deadStates[st] = d
		}
		return d
	}

	type key struct {
		sn schema.NodeID
		st int
		pc schema.EdgeCond // the entering predicate branch, for dead states only
	}
	index := map[key]int{}
	p := &Graph{Schema: s, Query: q}

	add := func(k key, conds []schema.EdgeCond) (int, error) {
		if dead(k.st) && len(conds) > 0 {
			k.pc = conds[0]
		}
		if id, ok := index[k]; ok {
			if !sameConds(p.nodes[id].PredConds, conds) {
				return 0, fmt.Errorf("pathid: ambiguous predicate query: node %s reached with contradictory predicate branches", s.Node(k.sn).Name)
			}
			return id, nil
		}
		index[k] = len(p.nodes)
		p.add(&Node{Schema: k.sn, State: k.st, Accepting: dfa.Accepting(k.st), PredConds: conds})
		return index[k], nil
	}

	// successors computes the (state, conds) variants when stepping into
	// schema node n from state st.
	successors := func(st int, n *schema.Node) ([]int, [][]schema.EdgeCond, error) {
		pred := q.PredForLabel(n.Label)
		if pred == nil || dead(st) {
			return []int{dfa.Step(st, n.Label, false)}, [][]schema.EdgeCond{nil}, nil
		}
		col, err := predColumn(s, n, pred.Child)
		if err != nil {
			return nil, nil, err
		}
		unsatState := dfa.Step(st, n.Label, false)
		if col == "" {
			// The schema gives this node no such child: elements can never
			// satisfy the predicate, and no selection is needed.
			return []int{unsatState}, [][]schema.EdgeCond{nil}, nil
		}
		satState := dfa.Step(st, n.Label, true)
		if satState == unsatState {
			return nil, nil, fmt.Errorf("pathid: ambiguous predicate query: satisfaction of %s does not affect matching at %s", pred, n.Name)
		}
		val := relational.String(pred.Value)
		return []int{satState, unsatState}, [][]schema.EdgeCond{
			{{Column: col, Value: val}},
			{{Column: col, Value: val, Neq: true}},
		}, nil
	}

	root := s.Root()
	if _, err := add(key{sn: root, st: dfa.Step(dfa.Start(), s.Node(root).Label, false)}, nil); err != nil {
		return nil, err
	}
	for work := 0; work < len(p.nodes); work++ {
		n := p.nodes[work]
		for _, e := range s.Node(n.Schema).Children() {
			states, condVariants, err := successors(n.State, s.Node(e.To))
			if err != nil {
				return nil, err
			}
			for vi, childState := range states {
				cid, err := add(key{sn: e.To, st: childState}, condVariants[vi])
				if err != nil {
					return nil, err
				}
				p.link(work, cid, e.Cond)
			}
		}
	}
	g.product = p

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
		for _, e := range p.parents[i] {
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
	for i, n := range p.nodes {
		newID[i] = -1
		if keep[i] {
			newID[i] = len(g.nodes)
			g.add(&Node{Schema: n.Schema, State: n.State, Accepting: n.Accepting, PredConds: n.PredConds})
		}
	}
	for i := range p.nodes {
		for _, e := range p.children[i] {
			if f, t := newID[e.From], newID[e.To]; f >= 0 && t >= 0 {
				g.link(f, t, e.Cond)
			}
		}
	}
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
		for _, e := range g.children[n.ID] {
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
		defer func() { visits[id]-- }()
		cur = append(cur, id)
		defer func() { cur = cur[:len(cur)-1] }()
		if g.nodes[id].Accepting {
			if len(out) >= limit {
				complete = false
				return false
			}
			out = append(out, append([]int(nil), cur...))
		}
		for _, e := range g.children[id] {
			if !rec(e.To) {
				return false
			}
		}
		return true
	}
	rec(g.start)
	return out, complete
}

func sameConds(a, b []schema.EdgeCond) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Column != b[i].Column || a[i].Neq != b[i].Neq || !a[i].Value.Identical(b[i].Value) {
			return false
		}
	}
	return true
}

// predColumn resolves a step predicate's child label at schema node n: the
// value column (of n's own tuple) storing that child's text. It returns ""
// when the schema gives n no such child (the predicate is unsatisfiable
// there), and an error when the child exists but owns its own relation —
// such predicates would require a semijoin, which the translation fragment
// deliberately excludes.
//
// Only *direct* children qualify: "[a='v']" is a child-axis test, and a
// value leaf nested under an unannotated structural node is a grandchild
// even though its text lands in the same tuple. (The randomized stress suite
// caught exactly that confusion.)
func predColumn(s *schema.Schema, n *schema.Node, childLabel string) (string, error) {
	if !n.HasRelation() {
		return "", fmt.Errorf("pathid: predicate on %q requires it to be relation-annotated", n.Label)
	}
	var found string
	for _, e := range n.Children() {
		m := s.Node(e.To)
		if m.Label != childLabel {
			continue
		}
		switch {
		case m.HasRelation():
			return "", fmt.Errorf("pathid: predicate child %q of %q is stored in its own relation %s, not as a value column",
				childLabel, n.Label, m.Relation)
		case m.Column != "":
			if m.Column == schema.IDColumn {
				return "", fmt.Errorf("pathid: predicate child %q of %q is an elemid, not a text value", childLabel, n.Label)
			}
			found = m.Column
		}
	}
	if found == "" {
		return "", nil
	}
	// Soundness: the resolved column must be populated *only* by direct
	// childLabel children of nodes in n's relation. If any other source
	// feeds the same (relation, column) pair — a self-storing node, a leaf
	// under a structural intermediary, or a differently-labelled leaf — a
	// column selection cannot distinguish predicate satisfaction from those
	// foreign values, and the query must be rejected rather than
	// mistranslated.
	rel := n.Relation
	for _, m := range s.Nodes() {
		if m.Column != found {
			continue
		}
		owner, err := s.OwnerRelation(m.ID)
		if err != nil || owner != rel {
			continue
		}
		if m.HasRelation() {
			return "", fmt.Errorf("pathid: predicate column %s.%s is also stored as %s's own text; the predicate cannot be expressed as a column selection",
				rel, found, m.Name)
		}
		if m.Label != childLabel {
			return "", fmt.Errorf("pathid: predicate column %s.%s is also populated by %q children; the predicate cannot be expressed as a column selection",
				rel, found, m.Label)
		}
		for _, pe := range m.Parents() {
			if s.Node(pe.From).Relation != rel {
				return "", fmt.Errorf("pathid: predicate column %s.%s is populated through a structural intermediary at %s; the predicate cannot be expressed as a column selection",
					rel, found, m.Name)
			}
		}
	}
	return found, nil
}
