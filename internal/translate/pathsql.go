// Package translate implements XML-to-SQL query translation. It provides
// the shared SQL-generation machinery — SQL(p) construction for paths, the
// combinable-class SELECT merging of §4.4, and a CTE-program generator for
// DAG/recursive cross-product graphs — and the baseline translator of [9]
// (Krishnamurthy et al., ICDE 2004) used as the comparison point throughout
// the paper. The lossless-constraint-aware translator of the paper itself
// lives in internal/core and reuses this machinery for its SQLGen stage.
package translate

import (
	"fmt"
	"slices"
	"strings"

	"xmlsql/internal/pathid"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// Aliases generates unique, paper-style table aliases within one SELECT:
// "Site" -> S, "InCat" -> IC, "R3" -> R3, with numeric suffixes on clashes.
type Aliases struct {
	used map[string]bool
}

// NewAliases creates an empty alias generator.
func NewAliases() *Aliases { return &Aliases{used: map[string]bool{}} }

// For returns a fresh alias for the relation.
func (a *Aliases) For(rel string) string {
	base := aliasBase(rel)
	if !a.used[base] {
		a.used[base] = true
		return base
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !a.used[cand] {
			a.used[cand] = true
			return cand
		}
	}
}

func aliasBase(rel string) string {
	var b strings.Builder
	for i := 0; i < len(rel); i++ {
		c := rel[i]
		if (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			b.WriteByte(c)
		}
	}
	if b.Len() == 0 && len(rel) > 0 {
		return strings.ToUpper(rel[:1])
	}
	out := b.String()
	if out[0] >= '0' && out[0] <= '9' {
		out = "T" + out // identifiers cannot start with a digit
	}
	return out
}

// PathSpec describes a (suffix of a) cross-product path to turn into SQL.
type PathSpec struct {
	// Nodes are cross-product node ids, top-down. Interior nodes may be
	// unannotated; the last node is the result node.
	Nodes []int
	// LeadConds are selection conditions applied to the first
	// tuple-producing alias without joining its parent — the paper's
	// edge-annotation optimization (§4.3): "use the edge annotation to see
	// if that suffices" before going up to the parent node.
	LeadConds []schema.EdgeCond
	// Anchored adds "first.parentid IS NULL", pinning the first node to the
	// document root. Root-to-leaf translations over schema-oblivious (Edge)
	// storage need this; for schema-aware storage it is a no-op and omitted
	// unless the root's relation is shared with other nodes.
	Anchored bool
}

// pathAnalysis is the decomposition of SQL(p): the relation sequence (the
// paper's RelSeq), per-relation-occurrence selection conditions, and the
// result column on the last occurrence.
type pathAnalysis struct {
	relSeq []string
	// sels[i] are the edge-condition selections landing on occurrence i.
	sels [][]schema.EdgeCond
	// col is the projection column, on the last occurrence.
	col string
}

// analyzePath computes the relation sequence and condition placement of a
// path without committing to aliases.
func analyzePath(g *pathid.Graph, spec PathSpec) (*pathAnalysis, error) {
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("translate: empty path")
	}
	pa := &pathAnalysis{}
	var pending []schema.EdgeCond
	pending = append(pending, spec.LeadConds...)

	for i, cpID := range spec.Nodes {
		if i > 0 {
			edge := findEdge(g, spec.Nodes[i-1], cpID)
			if edge == nil {
				return nil, fmt.Errorf("translate: no cross-product edge %d -> %d", spec.Nodes[i-1], cpID)
			}
			if edge.Cond != nil {
				pending = append(pending, *edge.Cond)
			}
		}
		sn := g.SchemaNode(cpID)
		if !sn.HasRelation() {
			continue
		}
		pa.relSeq = append(pa.relSeq, sn.Relation)
		occ := pending
		if extra := NodeConds(g, cpID); len(extra) > 0 {
			occ = append(append([]schema.EdgeCond(nil), pending...), extra...)
		}
		pa.sels = append(pa.sels, occ)
		pending = nil
	}

	last := spec.Nodes[len(spec.Nodes)-1]
	rel, col, err := g.Schema.Annot(g.Node(last).Schema)
	if err != nil {
		return nil, err
	}
	if len(pa.relSeq) == 0 {
		// The path consists solely of a column-only value leaf (e.g. the
		// bare Category node): a scan of the owning relation.
		pa.relSeq = append(pa.relSeq, rel)
		pa.sels = append(pa.sels, pending)
		pending = nil
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("translate: dangling edge conditions past last tuple node on path")
	}
	if got := pa.relSeq[len(pa.relSeq)-1]; got != rel {
		return nil, fmt.Errorf("translate: result column %s.%s not owned by last relation %s on path", rel, col, got)
	}
	pa.col = col
	return pa, nil
}

// skeleton builds the FROM clause and join/anchor conditions shared by every
// path with this relation sequence, returning the aliases in occurrence
// order.
func skeleton(relSeq []string, anchored bool, sel *sqlast.Select) []string {
	al := NewAliases()
	aliases := make([]string, len(relSeq))
	var conj []sqlast.Expr
	for i, rel := range relSeq {
		aliases[i] = al.For(rel)
		sel.From = append(sel.From, sqlast.From(rel, aliases[i]))
		if i == 0 {
			if anchored {
				conj = append(conj, sqlast.IsNull{Left: sqlast.ColRef{Table: aliases[0], Column: schema.ParentIDColumn}})
			}
			continue
		}
		conj = append(conj, sqlast.Eq(
			sqlast.ColRef{Table: aliases[i], Column: schema.ParentIDColumn},
			sqlast.ColRef{Table: aliases[i-1], Column: schema.IDColumn}))
	}
	sel.Where = sqlast.Conj(conj...)
	return aliases
}

func selExprs(pa *pathAnalysis, aliases []string) []sqlast.Expr {
	var out []sqlast.Expr
	for i, conds := range pa.sels {
		for _, c := range conds {
			out = append(out, CondExpr(aliases[i], c))
		}
	}
	return out
}

// CondExpr renders a condition as a predicate on the given alias. Negative
// conditions (the unsatisfied branch of a step predicate) must also admit
// NULL — an element without the predicate child does not satisfy it either.
func CondExpr(alias string, c schema.EdgeCond) sqlast.Expr {
	col := sqlast.ColRef{Table: alias, Column: c.Column}
	if c.Neq {
		return sqlast.Disj(
			sqlast.Cmp{Op: sqlast.OpNe, Left: col, Right: sqlast.Lit{Value: c.Value}},
			sqlast.IsNull{Left: col},
		)
	}
	return sqlast.Eq(col, sqlast.Lit{Value: c.Value})
}

// NodeConds returns the selections on a cross-product node's own tuple: the
// mapping's node conditions plus any step-predicate conditions the product
// attached.
func NodeConds(g *pathid.Graph, cpID int) []schema.EdgeCond {
	sn := g.SchemaNode(cpID)
	pc := g.Node(cpID).PredConds
	if len(pc) == 0 {
		return sn.Conds
	}
	return append(append([]schema.EdgeCond(nil), sn.Conds...), pc...)
}

// BuildPathSelect constructs SQL(p) (§3.2): one alias per relation-annotated
// node on the path, parent-child joins between consecutive aliases, edge
// conditions as selections on the alias they land on, and a projection of
// the result node's annotation.
func BuildPathSelect(g *pathid.Graph, spec PathSpec) (*sqlast.Select, error) {
	pa, err := analyzePath(g, spec)
	if err != nil {
		return nil, err
	}
	sel := &sqlast.Select{}
	aliases := skeleton(pa.relSeq, spec.Anchored, sel)
	sel.Where = sqlast.Conj(sel.Where, sqlast.Conj(selExprs(pa, aliases)...))
	sel.Cols = []sqlast.SelectItem{sqlast.Col(aliases[len(aliases)-1], pa.col)}
	return sel, nil
}

// BuildCombinedSelect merges several combinable paths (identical RelSeq,
// identical result column, identical anchoring) into the single SELECT of
// §4.4: shared FROM and joins, WHERE = C_common AND (C_1 OR … OR C_n) where
// C_i are the conditions specific to path i. The "lossless from XML"
// constraint is what makes issuing one query for overlapping paths correct.
func BuildCombinedSelect(g *pathid.Graph, specs []PathSpec) (*sqlast.Select, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("translate: no paths to combine")
	}
	analyses := make([]*pathAnalysis, len(specs))
	for i, spec := range specs {
		pa, err := analyzePath(g, spec)
		if err != nil {
			return nil, err
		}
		analyses[i] = pa
		if i > 0 {
			if !sameStrings(pa.relSeq, analyses[0].relSeq) {
				return nil, fmt.Errorf("translate: paths are not combinable: RelSeq %v vs %v", pa.relSeq, analyses[0].relSeq)
			}
			if pa.col != analyses[0].col {
				return nil, fmt.Errorf("translate: paths are not combinable: columns %s vs %s", pa.col, analyses[0].col)
			}
			if specs[i].Anchored != specs[0].Anchored {
				return nil, fmt.Errorf("translate: paths are not combinable: anchoring differs")
			}
		}
	}

	sel := &sqlast.Select{}
	aliases := skeleton(analyses[0].relSeq, specs[0].Anchored, sel)
	sel.Cols = []sqlast.SelectItem{sqlast.Col(aliases[len(aliases)-1], analyses[0].col)}

	// Split path conditions into the common core and per-path residue,
	// comparing (occurrence, condition) pairs by value.
	sets := make([][]occCond, len(specs))
	for i, pa := range analyses {
		for occ, conds := range pa.sels {
			for _, c := range conds {
				sets[i] = append(sets[i], occCond{occ, c})
			}
		}
	}
	exprs := func(set []occCond) []sqlast.Expr {
		out := make([]sqlast.Expr, len(set))
		for i, p := range set {
			out[i] = CondExpr(aliases[p.occ], p.cond)
		}
		return out
	}
	if len(specs) == 1 && len(sets[0]) <= 1 {
		// One path with at most one condition: it is the common core.
		sel.Where = sqlast.Conj(sel.Where, sqlast.Conj(exprs(sets[0])...))
		return sel, nil
	}
	// Preserve first-path ordering for deterministic output.
	var common []occCond
	for _, p := range sets[0] {
		if slices.Contains(common, p) {
			continue
		}
		inAll := true
		for _, set := range sets[1:] {
			inAll = inAll && slices.Contains(set, p)
		}
		if inAll {
			common = append(common, p)
		}
	}
	var residues [][]occCond
	anyEmpty := false
	for _, set := range sets {
		var rest []occCond
		for _, p := range set {
			if !slices.Contains(common, p) {
				rest = append(rest, p)
			}
		}
		if len(rest) == 0 {
			anyEmpty = true
			continue
		}
		if !slices.ContainsFunc(residues, func(r []occCond) bool { return slices.Equal(r, rest) }) {
			residues = append(residues, rest)
		}
	}

	where := sqlast.Conj(sel.Where, sqlast.Conj(exprs(common)...))
	if !anyEmpty && len(residues) > 0 {
		disj := make([]sqlast.Expr, len(residues))
		for i, r := range residues {
			disj[i] = sqlast.Conj(exprs(r)...)
		}
		where = sqlast.Conj(where, sqlast.Disj(disj...))
	}
	sel.Where = where
	return sel, nil
}

// occCond is one selection of a combined path: a condition on the alias of
// relation occurrence occ.
type occCond struct {
	occ  int
	cond schema.EdgeCond
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func findEdge(g *pathid.Graph, from, to int) *pathid.Edge {
	es := g.Children(from)
	for i := range es {
		if es[i].To == to {
			return &es[i]
		}
	}
	return nil
}

// PathRelSeq returns the sequence of relations joined by SQL(p) for a
// cross-product path, top-down — the paper's RelSeq(p). The owning relation
// of a trailing column-only leaf is included when the path contains no
// tuple node of its own (a bare scan).
func PathRelSeq(g *pathid.Graph, nodes []int) []string {
	var seq []string
	for _, id := range nodes {
		if sn := g.SchemaNode(id); sn.HasRelation() {
			seq = append(seq, sn.Relation)
		}
	}
	if len(seq) == 0 && len(nodes) > 0 {
		last := nodes[len(nodes)-1]
		if rel, _, err := g.Schema.Annot(g.Node(last).Schema); err == nil {
			seq = append(seq, rel)
		}
	}
	return seq
}
