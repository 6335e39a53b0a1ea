// Package schema models annotated XML schema graphs — the XML-to-Relational
// mappings of the paper (§3.1).
//
// A schema is a rooted, edge-labelled directed graph. Nodes carry the XML
// element tag (Label) and the mapping annotations: an optional Relation name
// (the node's elements become tuples of that relation) and, for value-bearing
// nodes, a Column name (the element's text value is stored in that column).
// A node with a Column but no Relation stores its value in the tuple of its
// nearest relation-annotated ancestor. Edges may carry a condition
// ("parentcode = 1", "tag = 'Item'") that the shredder materializes in the
// child tuple and the translator uses as a selection.
//
// Schemas may be trees, DAGs, or recursive (cyclic) graphs; classification
// and the graph utilities the pruning algorithm needs (reachability,
// strongly connected components) live in graph.go.
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xmlsql/internal/relational"
)

// NodeID identifies a node within one Schema.
type NodeID int

// EdgeCond is an edge annotation: a selection "Column = Value" on the
// relation owning the edge's target (the next relation-annotated node at or
// below the edge on any path through it).
//
// With Neq set the condition is negative — "Column <> Value OR Column IS
// NULL". Mapping annotations never use Neq (the builder rejects it); it
// exists for the predicate-query extension, whose cross-product edges carry
// both satisfied (=) and unsatisfied (<>) branches of a step predicate.
type EdgeCond struct {
	Column string
	Value  relational.Value
	Neq    bool
}

// String renders the condition like "parentcode=1" (or "pc!=1").
func (c EdgeCond) String() string {
	op := "="
	if c.Neq {
		op = "!="
	}
	return c.Column + op + c.Value.String()
}

// SameConds reports whether two condition lists are identical, element by
// element.
func SameConds(a, b []EdgeCond) bool {
	return slices.EqualFunc(a, b, func(x, y EdgeCond) bool {
		return x.Column == y.Column && x.Neq == y.Neq && x.Value.Identical(y.Value)
	})
}

// Edge is a directed schema edge.
type Edge struct {
	From NodeID
	To   NodeID
	Cond *EdgeCond // nil if unannotated
}

// Node is a schema node.
type Node struct {
	ID    NodeID
	Name  string // stable identifier used by the DSL and in figures ("12")
	Label string // XML element tag ("Category")

	// Relation is the node annotation: elements matching this node become
	// tuples of the named relation. Empty for unannotated nodes (e.g. the
	// Regions and Africa nodes of Fig. 1).
	Relation string
	// Column: the element's text value is stored in this column of the
	// owning relation (the node's own Relation if set, otherwise the nearest
	// relation-annotated ancestor's).
	Column string
	// Conds are node-level conditions: columns of the node's own relation
	// that the shredder materializes for every tuple of this node and that
	// translation uses as selections. The schema-oblivious Edge mapping's
	// "tag = '<label>'" is the canonical example (§5.3) — unlike an edge
	// condition it also applies to the root, which has no incoming edge.
	// Only relation-annotated nodes may carry Conds.
	Conds []EdgeCond

	children []Edge
	parents  []Edge
}

// Children returns the outgoing edges in insertion order.
func (n *Node) Children() []Edge { return n.children }

// Parents returns the incoming edges in insertion order.
func (n *Node) Parents() []Edge { return n.parents }

// IsLeaf reports whether the node has no outgoing edges.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// HasRelation reports whether the node is annotated with a relation.
func (n *Node) HasRelation() bool { return n.Relation != "" }

// Schema is an annotated XML schema graph.
type Schema struct {
	Name   string
	nodes  []*Node
	byName map[string]NodeID
	root   NodeID
	fpc    fingerprintCache
	comp   compiled
}

// Root returns the root node's id.
func (s *Schema) Root() NodeID { return s.root }

// RootNode returns the root node.
func (s *Schema) RootNode() *Node { return s.nodes[s.root] }

// Node returns the node with the given id. It panics on an id not issued by
// this schema (a program bug, never data-dependent).
func (s *Schema) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("schema: bad node id %d", id))
	}
	return s.nodes[id]
}

// NodeByName returns the node with the given DSL name, or nil.
func (s *Schema) NodeByName(name string) *Node {
	id, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.nodes[id]
}

// Nodes returns all nodes in id order. The slice must not be mutated.
func (s *Schema) Nodes() []*Node { return s.nodes }

// NumNodes returns the number of nodes.
func (s *Schema) NumNodes() int { return len(s.nodes) }

// Edges returns every edge of the schema.
func (s *Schema) Edges() []Edge {
	var out []Edge
	for _, n := range s.nodes {
		out = append(out, n.children...)
	}
	return out
}

// EdgeBetween returns the edge from -> to, or nil if none exists.
func (s *Schema) EdgeBetween(from, to NodeID) *Edge {
	for i := range s.nodes[from].children {
		if s.nodes[from].children[i].To == to {
			return &s.nodes[from].children[i]
		}
	}
	return nil
}

// Relations returns the sorted set of relation names used in annotations.
func (s *Schema) Relations() []string {
	set := map[string]bool{}
	for _, n := range s.nodes {
		if n.Relation != "" {
			set[n.Relation] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural well-formedness: a root that reaches every
// node, no dangling edges, value columns resolvable to an owning relation,
// and edge conditions attached where an owning relation exists.
func (s *Schema) Validate() error {
	if len(s.nodes) == 0 {
		return fmt.Errorf("schema %s: empty", s.Name)
	}
	reach := s.ReachableFromRoot()
	for _, n := range s.nodes {
		if !reach[n.ID] {
			return fmt.Errorf("schema %s: node %s unreachable from root", s.Name, n.Name)
		}
		if n.Label == "" {
			return fmt.Errorf("schema %s: node %s has empty label", s.Name, n.Name)
		}
		if n.Column != "" {
			if _, err := s.OwnerRelation(n.ID); err != nil {
				return err
			}
		}
		if len(n.Conds) > 0 && !n.HasRelation() {
			return fmt.Errorf("schema %s: node %s has node conditions but no relation", s.Name, n.Name)
		}
		for _, c := range n.Conds {
			if c.Neq {
				return fmt.Errorf("schema %s: node %s: negative conditions are not allowed in mappings", s.Name, n.Name)
			}
		}
	}
	for _, e := range s.Edges() {
		if e.Cond != nil && e.Cond.Neq {
			return fmt.Errorf("schema %s: negative edge conditions are not allowed in mappings", s.Name)
		}
	}
	// Every edge condition must have a downstream owning relation.
	for _, e := range s.Edges() {
		if e.Cond == nil {
			continue
		}
		if !s.hasDownstreamRelation(e.To, map[NodeID]bool{}) {
			return fmt.Errorf("schema %s: edge %s->%s condition %s has no owning relation",
				s.Name, s.nodes[e.From].Name, s.nodes[e.To].Name, e.Cond)
		}
	}
	return nil
}

func (s *Schema) hasDownstreamRelation(id NodeID, seen map[NodeID]bool) bool {
	if seen[id] {
		return false
	}
	seen[id] = true
	n := s.nodes[id]
	if n.HasRelation() {
		return true
	}
	for _, e := range n.children {
		if s.hasDownstreamRelation(e.To, seen) {
			return true
		}
	}
	return false
}

// OwnerRelation resolves the relation owning a node's value column: the
// node's own relation if annotated, else the unique nearest
// relation-annotated proper ancestor. An error is returned when no owner
// exists or when distinct ancestor chains yield different owners (the
// mapping would be ambiguous).
func (s *Schema) OwnerRelation(id NodeID) (string, error) {
	n := s.nodes[id]
	if n.HasRelation() {
		return n.Relation, nil
	}
	owners := map[string]bool{}
	s.collectOwners(id, map[NodeID]bool{}, owners)
	switch len(owners) {
	case 0:
		return "", fmt.Errorf("schema %s: node %s has no owning relation", s.Name, n.Name)
	case 1:
		for r := range owners {
			return r, nil
		}
	}
	names := make([]string, 0, len(owners))
	for r := range owners {
		names = append(names, r)
	}
	sort.Strings(names)
	return "", fmt.Errorf("schema %s: node %s has ambiguous owning relations %v", s.Name, n.Name, names)
}

func (s *Schema) collectOwners(id NodeID, seen map[NodeID]bool, owners map[string]bool) {
	if seen[id] {
		return
	}
	seen[id] = true
	for _, e := range s.nodes[id].parents {
		p := s.nodes[e.From]
		if p.HasRelation() {
			owners[p.Relation] = true
			continue
		}
		s.collectOwners(p.ID, seen, owners)
	}
}

// Annot returns the node's value annotation as "Relation.Column" (for
// column-bearing nodes) or "Relation.id" (for relation-annotated nodes
// without a value column, whose query result is the elemid). It errors on
// unannotated nodes, which have no retrievable value. The answer is
// computed once per node.
func (s *Schema) Annot(id NodeID) (rel, col string, err error) {
	a := s.compiled().annot[id]
	return a.rel, a.col, a.err
}

func (s *Schema) annot(id NodeID) (rel, col string, err error) {
	n := s.nodes[id]
	if n.Column != "" {
		rel, err = s.OwnerRelation(id)
		return rel, n.Column, err
	}
	if n.HasRelation() {
		return n.Relation, IDColumn, nil
	}
	return "", "", fmt.Errorf("schema %s: node %s has no annotation", s.Name, n.Name)
}

// Reserved column names materialized by the shredder in every relation.
const (
	IDColumn       = "id"
	ParentIDColumn = "parentid"
)

// String renders the schema in the DSL syntax (round-trips through Parse).
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", s.Name)
	fmt.Fprintf(&b, "root %s\n", s.nodes[s.root].Name)
	for _, n := range s.nodes {
		fmt.Fprintf(&b, "node %s label=%s", n.Name, n.Label)
		if n.Relation != "" {
			fmt.Fprintf(&b, " rel=%s", n.Relation)
		}
		if n.Column != "" {
			fmt.Fprintf(&b, " col=%s", n.Column)
		}
		for _, c := range n.Conds {
			fmt.Fprintf(&b, " cond=%s", c)
		}
		b.WriteString("\n")
	}
	for _, n := range s.nodes {
		for _, e := range n.children {
			fmt.Fprintf(&b, "edge %s -> %s", n.Name, s.nodes[e.To].Name)
			if e.Cond != nil {
				fmt.Fprintf(&b, " [%s]", e.Cond)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
