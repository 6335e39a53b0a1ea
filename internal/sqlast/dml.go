package sqlast

import (
	"fmt"
	"strings"

	"xmlsql/internal/relational"
)

// DMLStmt is one data-modification statement of an update batch: the XML
// update path plans mutations into a sequence of these, which a backend
// applies atomically (internal/update, backend.DML). Values are rendered as
// literals — update batches are planned, not prepared, so there is no bind
// parameter surface.
type DMLStmt interface {
	// DMLTable names the single table the statement touches.
	DMLTable() string
	// SQLFor renders the statement for a dialect, without a trailing
	// semicolon.
	SQLFor(d *Dialect) string
}

// InsertStmt inserts one or more rows into a table.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Lit
}

// DMLTable implements DMLStmt.
func (s *InsertStmt) DMLTable() string { return s.Table }

// SQLFor implements DMLStmt.
func (s *InsertStmt) SQLFor(d *Dialect) string {
	d = d.or()
	var b strings.Builder
	b.WriteString(d.kw("insert into "))
	b.WriteString(d.Ident(s.Table))
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Ident(c))
	}
	b.WriteString(d.kw(") values "))
	for i, r := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			v.render(&b, d)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// DeleteStmt removes the rows matching Where from a table. A nil Where
// deletes nothing (rendered as the dialect's FALSE), never everything: the
// update path always scopes deletes by id, and an accidentally empty
// predicate must not truncate a relation.
type DeleteStmt struct {
	Table string
	Where Expr
}

// DMLTable implements DMLStmt.
func (s *DeleteStmt) DMLTable() string { return s.Table }

// SQLFor implements DMLStmt.
func (s *DeleteStmt) SQLFor(d *Dialect) string {
	d = d.or()
	var b strings.Builder
	b.WriteString(d.kw("delete from "))
	b.WriteString(d.Ident(s.Table))
	b.WriteString(d.kw(" where "))
	if s.Where == nil {
		b.WriteString(d.falseSQL())
	} else {
		s.Where.render(&b, d)
	}
	return b.String()
}

// Assign is one SET column = literal assignment of an UpdateStmt.
type Assign struct {
	Column string
	Value  Lit
}

// UpdateStmt rewrites columns of the rows matching Where. Like DeleteStmt, a
// nil Where matches nothing.
type UpdateStmt struct {
	Table string
	Set   []Assign
	Where Expr
}

// DMLTable implements DMLStmt.
func (s *UpdateStmt) DMLTable() string { return s.Table }

// SQLFor implements DMLStmt.
func (s *UpdateStmt) SQLFor(d *Dialect) string {
	d = d.or()
	var b strings.Builder
	b.WriteString(d.kw("update "))
	b.WriteString(d.Ident(s.Table))
	b.WriteString(d.kw(" set "))
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Ident(a.Column))
		b.WriteString(" = ")
		a.Value.render(&b, d)
	}
	b.WriteString(d.kw(" where "))
	if s.Where == nil {
		b.WriteString(d.falseSQL())
	} else {
		s.Where.render(&b, d)
	}
	return b.String()
}

// DMLString renders a statement in the default (paper-style) dialect.
func DMLString(s DMLStmt) string { return s.SQLFor(DialectDefault) }

// EvalRowPredicate evaluates a WHERE expression against a single row of the
// given schema, resolving column references by name (any table qualifier is
// ignored — DML statements scope a single table). It supports the expression
// forms DML planning emits: conjunction, disjunction, =/<> comparisons,
// IN lists, and IS NULL, over column references and literals. Comparisons
// follow SQL semantics: a NULL operand never matches.
func EvalRowPredicate(ts *relational.TableSchema, e Expr, row relational.Row) (bool, error) {
	if e == nil {
		return false, nil
	}
	operand := func(x Expr) (relational.Value, error) {
		switch v := x.(type) {
		case Lit:
			return v.Value, nil
		case ColRef:
			ci := ts.ColumnIndex(v.Column)
			if ci < 0 {
				return relational.Value{}, fmt.Errorf("sqlast: table %s has no column %s", ts.Name, v.Column)
			}
			return row[ci], nil
		}
		return relational.Value{}, fmt.Errorf("sqlast: unsupported DML operand %T", x)
	}
	switch v := e.(type) {
	case And:
		for _, k := range v.Kids {
			ok, err := EvalRowPredicate(ts, k, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case Or:
		for _, k := range v.Kids {
			ok, err := EvalRowPredicate(ts, k, row)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case Cmp:
		l, err := operand(v.Left)
		if err != nil {
			return false, err
		}
		r, err := operand(v.Right)
		if err != nil {
			return false, err
		}
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		if v.Op == OpNe {
			return !l.Equal(r), nil
		}
		return l.Equal(r), nil
	case In:
		l, err := operand(v.Left)
		if err != nil {
			return false, err
		}
		for _, lit := range v.List {
			if l.Equal(lit.Value) {
				return true, nil
			}
		}
		return false, nil
	case IsNull:
		l, err := operand(v.Left)
		if err != nil {
			return false, err
		}
		return l.IsNull(), nil
	}
	return false, fmt.Errorf("sqlast: unsupported DML predicate %T", e)
}

// KeysFromWhere returns the values of the named column that a DML predicate
// can possibly match. The recognised forms are the ones DML planning emits:
// column = literal, column IN (...), OR over such forms, and AND where one
// conjunct is such a form (the other conjuncts only narrow the match). The
// keys are therefore a superset of the matching rows' values, possibly with
// repeats; ok is false for any other shape.
func KeysFromWhere(e Expr, column string) (keys []relational.Value, ok bool) {
	isCol := func(x Expr) bool {
		c, ok := x.(ColRef)
		return ok && c.Column == column
	}
	switch v := e.(type) {
	case Cmp:
		if lit, isLit := v.Right.(Lit); isLit && v.Op == OpEq && isCol(v.Left) {
			return []relational.Value{lit.Value}, true
		}
	case In:
		if isCol(v.Left) {
			keys = make([]relational.Value, len(v.List))
			for i, l := range v.List {
				keys[i] = l.Value
			}
			return keys, true
		}
	case Or:
		for _, k := range v.Kids {
			kk, ok := KeysFromWhere(k, column)
			if !ok {
				return nil, false
			}
			keys = append(keys, kk...)
		}
		return keys, true
	case And:
		for _, k := range v.Kids {
			if keys, ok := KeysFromWhere(k, column); ok {
				return keys, true
			}
		}
	}
	return nil, false
}
