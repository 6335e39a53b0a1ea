package sqlast

import (
	"sort"
	"strings"
)

// CanonExpr renders an expression into a canonical string for structural
// comparison: symmetric comparisons sort their operands, IN lists and
// AND/OR children are sorted, and every alias is passed through rename (nil
// means identity). Two expressions with equal canonical strings select the
// same rows on any instance, which is what the shared-work rewrite
// (FactorUnions) keys on.
func CanonExpr(e Expr, rename func(alias string) string) string {
	var b strings.Builder
	canonInto(&b, e, rename)
	return b.String()
}

func canonInto(b *strings.Builder, e Expr, rename func(string) string) {
	switch e := e.(type) {
	case nil:
		b.WriteString("true")
	case ColRef:
		t := e.Table
		if rename != nil {
			t = rename(t)
		}
		b.WriteString(t)
		b.WriteByte('.')
		b.WriteString(e.Column)
	case Lit:
		b.WriteString("lit:")
		b.WriteString(e.Value.Key())
	case Cmp:
		// = and <> are symmetric, so the operand order is not significant.
		l := CanonExpr(e.Left, rename)
		r := CanonExpr(e.Right, rename)
		if r < l {
			l, r = r, l
		}
		b.WriteString(e.Op.String())
		b.WriteByte('(')
		b.WriteString(l)
		b.WriteByte(',')
		b.WriteString(r)
		b.WriteByte(')')
	case IsNull:
		b.WriteString("isnull(")
		canonInto(b, e.Left, rename)
		b.WriteByte(')')
	case In:
		b.WriteString("in(")
		canonInto(b, e.Left, rename)
		b.WriteByte(';')
		keys := make([]string, len(e.List))
		for i, l := range e.List {
			keys[i] = l.Value.Key()
		}
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, ","))
		b.WriteByte(')')
	case And:
		canonKids(b, "and", e.Kids, rename)
	case Or:
		canonKids(b, "or", e.Kids, rename)
	}
}

func canonKids(b *strings.Builder, op string, kids []Expr, rename func(string) string) {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = CanonExpr(k, rename)
	}
	sort.Strings(parts)
	b.WriteString(op)
	b.WriteByte('(')
	b.WriteString(strings.Join(parts, ","))
	b.WriteByte(')')
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

// exprAliasSet collects the FROM aliases an expression references into acc.
func exprAliasSet(e Expr, acc map[string]bool) map[string]bool {
	switch e := e.(type) {
	case ColRef:
		acc[e.Table] = true
	case Cmp:
		exprAliasSet(e.Left, acc)
		exprAliasSet(e.Right, acc)
	case In:
		exprAliasSet(e.Left, acc)
	case IsNull:
		exprAliasSet(e.Left, acc)
	case And:
		for _, k := range e.Kids {
			exprAliasSet(k, acc)
		}
	case Or:
		for _, k := range e.Kids {
			exprAliasSet(k, acc)
		}
	case Lit:
	}
	return acc
}
