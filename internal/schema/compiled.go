package schema

import (
	"fmt"
	"sync"

	"xmlsql/internal/relational"
)

// compiled holds the query-independent tables that translation reads on
// every plan-cache miss. Schemas are immutable once built, so, like the
// fingerprint, they are computed once, on first use, and then shared by
// every goroutine that translates against the schema.
type compiled struct {
	once    sync.Once
	labels  map[string]int  // element label -> dense label id
	labelOf []int           // node -> label id
	annot   []annotation    // node -> Annot's answer
	preds   [][]predColumn  // node -> PredColumn's answer per child label
	consts  map[string]bool // the text of every condition's constant

	// Built on first use too, apart: schemas that only translate need neither.
	relOnce, auditOnce sync.Once
	defs               map[string]*RelationDef // DeriveRelations' answer
	defsErr            error
	audit              any // AuditTables' value
}

type annotation struct {
	rel, col string
	err      error
}

type predColumn struct {
	label int
	col   string
	err   error
}

func (s *Schema) compiled() *compiled {
	c := &s.comp
	c.once.Do(func() {
		c.labels = map[string]int{}
		c.labelOf = make([]int, len(s.nodes))
		c.annot = make([]annotation, len(s.nodes))
		c.preds = make([][]predColumn, len(s.nodes))
		c.consts = map[string]bool{}
		for _, n := range s.nodes {
			for _, cond := range n.Conds {
				c.consts[constText(cond.Value)] = true
			}
			for _, e := range n.children {
				if e.Cond != nil {
					c.consts[constText(e.Cond.Value)] = true
				}
			}
			id, ok := c.labels[n.Label]
			if !ok {
				id = len(c.labels)
				c.labels[n.Label] = id
			}
			c.labelOf[n.ID] = id
			a := &c.annot[n.ID]
			a.rel, a.col, a.err = s.annot(n.ID)
		}
		for _, n := range s.nodes {
			if !n.HasRelation() {
				continue
			}
			for _, e := range n.children {
				l := c.labelOf[e.To]
				if !containsLabel(c.preds[n.ID], l) {
					col, err := s.predColumn(n, s.nodes[e.To].Label)
					c.preds[n.ID] = append(c.preds[n.ID], predColumn{label: l, col: col, err: err})
				}
			}
		}
	})
	return c
}

// AuditTables returns the auditor's tables for s, calling build on first
// use; internal/integrity owns their type, the schema only holds them.
func (s *Schema) AuditTables(build func() any) any {
	c := &s.comp
	c.auditOnce.Do(func() { c.audit = build() })
	return c.audit
}

func containsLabel(ps []predColumn, label int) bool {
	for _, p := range ps {
		if p.label == label {
			return true
		}
	}
	return false
}

// NumLabels returns the number of distinct element labels; label ids run
// from 0 to NumLabels()-1.
func (s *Schema) NumLabels() int { return len(s.compiled().labels) }

// LabelID returns the id of an element label, and false when no node of
// the schema carries it.
func (s *Schema) LabelID(label string) (int, bool) {
	id, ok := s.compiled().labels[label]
	return id, ok
}

// NodeLabelID returns the id of the node's label.
func (s *Schema) NodeLabelID(id NodeID) int { return s.compiled().labelOf[id] }

// IsConstant reports whether v is the text of a constant that some
// condition of the mapping, on a node or on an edge, compares a column to
// (parentcode=1 has the text "1"). The plan cache shares a translation only
// between texts whose literals are none of these (see plancache.Bindable).
func (s *Schema) IsConstant(v string) bool { return s.compiled().consts[v] }

func constText(v relational.Value) string {
	if v.Kind() == relational.KindString {
		return v.AsString()
	}
	return v.String()
}

// PredColumn resolves a child-axis step predicate "[childLabel='v']" at
// node id: the value column of the node's own tuple that stores that
// child's text. It returns "" when the schema gives the node no such child
// (the predicate is unsatisfiable there), and an error when the predicate
// cannot be expressed as a selection on that column.
func (s *Schema) PredColumn(id NodeID, childLabel string) (string, error) {
	c := s.compiled()
	n := s.nodes[id]
	if !n.HasRelation() {
		return "", fmt.Errorf("pathid: predicate on %q requires it to be relation-annotated", n.Label)
	}
	l, ok := c.labels[childLabel]
	for _, p := range c.preds[id] {
		if ok && p.label == l {
			return p.col, p.err
		}
	}
	return "", nil
}

// predColumn computes PredColumn for a relation-annotated node. It errors
// when the child exists but owns its own relation — such predicates would
// require a semijoin, which the translation fragment deliberately excludes.
//
// Only *direct* children qualify: "[a='v']" is a child-axis test, and a
// value leaf nested under an unannotated structural node is a grandchild
// even though its text lands in the same tuple. (The randomized stress suite
// caught exactly that confusion.)
func (s *Schema) predColumn(n *Node, childLabel string) (string, error) {
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
			if m.Column == IDColumn {
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
