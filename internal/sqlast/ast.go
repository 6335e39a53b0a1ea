// Package sqlast defines the abstract syntax of the SQL fragment produced by
// XML-to-SQL query translation, together with a renderer that prints the
// paper-style SQL text.
//
// The fragment is exactly what the translation algorithms of the paper emit:
// SELECT-FROM-WHERE blocks with conjunctions, disjunctions, equality/IN
// predicates, UNION ALL, and WITH [RECURSIVE] common table expressions.
package sqlast

import (
	"fmt"
	"strings"
	"sync/atomic"

	"xmlsql/internal/relational"
)

// Expr is a boolean or scalar expression node.
type Expr interface {
	render(b *strings.Builder, d *Dialect)
	exprNode()
}

// ColRef references a column of a FROM-clause item by alias.
type ColRef struct {
	Table  string // the alias of the FROM item
	Column string
}

func (ColRef) exprNode() {}

func (c ColRef) render(b *strings.Builder, d *Dialect) {
	if c.Table != "" {
		b.WriteString(d.Ident(c.Table))
		b.WriteByte('.')
	}
	b.WriteString(d.Ident(c.Column))
}

// Lit is a literal value.
type Lit struct {
	Value relational.Value
}

func (Lit) exprNode() {}

func (l Lit) render(b *strings.Builder, d *Dialect) { b.WriteString(d.Literal(l.Value)) }

// IntLit builds an integer literal expression.
func IntLit(v int64) Lit { return Lit{Value: relational.Int(v)} }

// StringLit builds a string literal expression.
func StringLit(v string) Lit { return Lit{Value: relational.String(v)} }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
)

func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(o))
	}
}

// Cmp is a binary comparison.
type Cmp struct {
	Op    CmpOp
	Left  Expr
	Right Expr
}

func (Cmp) exprNode() {}

func (c Cmp) render(b *strings.Builder, d *Dialect) {
	c.Left.render(b, d)
	b.WriteByte(' ')
	b.WriteString(c.Op.String())
	b.WriteByte(' ')
	c.Right.render(b, d)
}

// Eq builds Left = Right.
func Eq(l, r Expr) Cmp { return Cmp{Op: OpEq, Left: l, Right: r} }

// IsNull tests whether Left is SQL NULL. The translators anchor paths at the
// schema root with "root.parentid IS NULL", which matters for
// schema-oblivious (Edge) storage where all nodes share one relation.
type IsNull struct {
	Left Expr
}

func (IsNull) exprNode() {}

func (i IsNull) render(b *strings.Builder, d *Dialect) {
	i.Left.render(b, d)
	b.WriteString(" IS NULL")
}

// In tests membership of Left in a literal list.
type In struct {
	Left Expr
	List []Lit
}

func (In) exprNode() {}

func (i In) render(b *strings.Builder, d *Dialect) {
	i.Left.render(b, d)
	b.WriteString(" IN (")
	for j, l := range i.List {
		if j > 0 {
			b.WriteString(", ")
		}
		l.render(b, d)
	}
	b.WriteByte(')')
}

// And is an n-ary conjunction. An empty And is TRUE.
type And struct {
	Kids []Expr
}

func (And) exprNode() {}

func (a And) render(b *strings.Builder, d *Dialect) {
	if len(a.Kids) == 0 {
		b.WriteString(d.trueSQL())
		return
	}
	for i, k := range a.Kids {
		if i > 0 {
			b.WriteString(" AND ")
		}
		renderChild(b, k, precAnd, d)
	}
}

// Or is an n-ary disjunction. An empty Or is FALSE.
type Or struct {
	Kids []Expr
}

func (Or) exprNode() {}

func (o Or) render(b *strings.Builder, d *Dialect) {
	if len(o.Kids) == 0 {
		b.WriteString(d.falseSQL())
		return
	}
	for i, k := range o.Kids {
		if i > 0 {
			b.WriteString(" OR ")
		}
		renderChild(b, k, precOr, d)
	}
}

const (
	precOr = iota
	precAnd
	precAtom
)

func prec(e Expr) int {
	switch e.(type) {
	case Or:
		return precOr
	case And:
		return precAnd
	default:
		return precAtom
	}
}

func renderChild(b *strings.Builder, e Expr, parent int, d *Dialect) {
	if prec(e) < parent {
		b.WriteByte('(')
		e.render(b, d)
		b.WriteByte(')')
		return
	}
	e.render(b, d)
}

// Conj builds a conjunction, flattening nested Ands and dropping nils. A
// single child is returned unwrapped; zero children yield nil (TRUE).
func Conj(kids ...Expr) Expr {
	var flat []Expr
	for _, k := range kids {
		switch k := k.(type) {
		case nil:
			continue
		case And:
			flat = append(flat, k.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return And{Kids: flat}
}

// Conjuncts flattens an expression into its top-level AND conjuncts (nil
// yields none).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(And); ok {
		var out []Expr
		for _, k := range a.Kids {
			out = append(out, Conjuncts(k)...)
		}
		return out
	}
	return []Expr{e}
}

// Disj builds a disjunction, flattening nested Ors and dropping nils (a nil
// disjunct is TRUE, making the whole disjunction TRUE, so Disj returns nil).
func Disj(kids ...Expr) Expr {
	var flat []Expr
	for _, k := range kids {
		switch k := k.(type) {
		case nil:
			return nil // TRUE disjunct
		case Or:
			flat = append(flat, k.Kids...)
		default:
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return Or{} // FALSE
	case 1:
		return flat[0]
	}
	return Or{Kids: flat}
}

// SelectItem is one projection of a SELECT clause: either a single expression
// (optionally renamed) or a whole-row star "alias.*".
type SelectItem struct {
	// Star selects every column of the FROM item with alias StarTable.
	Star      bool
	StarTable string
	Expr      Expr
	As        string
}

// Col is shorthand for a plain column projection.
func Col(table, column string) SelectItem {
	return SelectItem{Expr: ColRef{Table: table, Column: column}}
}

// Star is shorthand for an "alias.*" projection.
func Star(table string) SelectItem { return SelectItem{Star: true, StarTable: table} }

func (s SelectItem) render(b *strings.Builder, d *Dialect) {
	if s.Star {
		b.WriteString(d.Ident(s.StarTable))
		b.WriteString(".*")
		return
	}
	s.Expr.render(b, d)
	if s.As != "" {
		b.WriteString(" AS ")
		b.WriteString(d.Ident(s.As))
	}
}

// FromItem names a table or CTE and binds an alias to it.
type FromItem struct {
	Source string // base table or CTE name
	Alias  string
}

func (f FromItem) render(b *strings.Builder, d *Dialect) {
	b.WriteString(d.Ident(f.Source))
	if f.Alias != "" && f.Alias != f.Source {
		b.WriteByte(' ')
		b.WriteString(d.Ident(f.Alias))
	}
}

// From is shorthand for a FROM item.
func From(source, alias string) FromItem { return FromItem{Source: source, Alias: alias} }

// Select is a single SELECT-FROM-WHERE block.
type Select struct {
	Cols  []SelectItem
	From  []FromItem
	Where Expr // nil means no WHERE clause
}

// CTE is one WITH-clause definition. A recursive CTE's body may reference
// Name in its FROM items.
type CTE struct {
	Name      string
	Recursive bool
	Body      *Query
}

// Query is the top-level statement: optional CTEs and a UNION ALL of
// SELECT blocks. A query must not be edited once it has run: its first run
// memoises the executor's compiled plan on it (see Compiled).
type Query struct {
	With    []CTE
	Selects []*Select

	compiled atomic.Value
}

// Compiled returns the executor plan memoised on q by SetCompiled, or nil.
func (q *Query) Compiled() any { return q.compiled.Load() }

// SetCompiled memoises an executor's compiled plan on q unless one is
// memoised already. The plan lives exactly as long as q does.
func (q *Query) SetCompiled(plan any) { q.compiled.CompareAndSwap(nil, plan) }

// SingleSelect wraps one Select into a Query.
func SingleSelect(s *Select) *Query { return &Query{Selects: []*Select{s}} }

// Union concatenates the branches of several queries into one UNION ALL
// query, merging their WITH lists.
func Union(qs ...*Query) *Query {
	out := &Query{}
	for _, q := range qs {
		out.With = append(out.With, q.With...)
		out.Selects = append(out.Selects, q.Selects...)
	}
	return out
}
