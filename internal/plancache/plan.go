package plancache

import (
	"fmt"
	"slices"
	"strings"

	"xmlsql/internal/core"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
)

// Plan is what one query text is served in one mode: its translation
// (trusted: the pruned one unless pruning fell back; safe: the baseline of
// [9]), the plan rule's decision, and what a write addressing the path's
// elements derives from it. A cached Plan is a template for every text of
// its shape and is never edited; Bind copies it.
type Plan struct {
	Tr  *core.Result
	Dec *translate.Decision
	// Nodes are the schema nodes the path accepts, ascending, and ByRel
	// groups them by the relation their tuples live in.
	Nodes []schema.NodeID
	ByRel map[string][]schema.NodeID
	// BlockRel names, when ByRel has more than one relation, the relation
	// each result block of Tr.Query reads.
	BlockRel []string
	// TargetErr, when set, is why a write cannot address the path's
	// elements: they have no tuple, or there are none.
	TargetErr string

	lits []string // the literals Tr was translated with
}

// Serve returns the Plan of text under s in trusted or safe mode, options
// being the key's Options for that mode. A text whose literals are bindable
// is looked up by its shape: a hit binds the cached template to them, a
// miss translates the text and caches it as its shape's template. Any other
// text is looked up, and cached, by itself. A read (write false) also keeps
// its bound copy under its own text, which is looked up first, so a text
// read again is served the plan it compiled on its first run; a write
// brings a fresh literal each time and keeps nothing but templates.
func (c *Cache) Serve(s *schema.Schema, text, options string, safe, write bool, opts core.Options) (*Plan, error) {
	k := Key{SchemaFP: s.Fingerprint(), Query: text, Options: options}
	own := k
	var buf [4]string
	var lits []string
	if strings.IndexByte(text, '\'') >= 0 { // else text is its own shape; a miss parses it
		if v, ok := c.peek(own); ok {
			c.hits.Add(1)
			return v.(*Plan), nil
		}
		shape, l, err := pathexpr.Shape(text, buf[:0])
		if err != nil {
			return nil, err
		}
		if Bindable(s, l) {
			k.Query, lits = shape, l
		}
	}
	if v, ok := c.Get(k); ok {
		pl := v.(*Plan)
		if lits != nil {
			if b := pl.Bind(lits); b != pl {
				if !write {
					c.Put(own, b)
				}
				pl = b
			}
		}
		return pl, nil
	}
	pl, err := Translate(s, text, safe, opts)
	if err != nil {
		return nil, err
	}
	c.Put(k, pl)
	return pl, nil
}

// Translate derives the Plan of text under s in trusted or safe mode; it is
// what fills a cache miss, and what callers without a cache serve from.
func Translate(s *schema.Schema, text string, safe bool, opts core.Options) (*Plan, error) {
	q, err := pathexpr.Parse(text)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(s, q)
	if err != nil {
		return nil, err
	}
	pl := &Plan{}
	if safe {
		nq, err := translate.Naive(g)
		if err != nil {
			return nil, err
		}
		pl.Tr = &core.Result{Query: nq, Fallback: true}
		pl.Dec = &translate.Decision{Reason: translate.ReasonSafeMode, Query: nq}
	} else {
		if pl.Tr, err = core.TranslateOpts(g, opts); err != nil {
			return nil, err
		}
		if pl.Tr.Fallback {
			pl.Dec = translate.ChoosePlan(pl.Tr.Query, nil, s, nil)
		} else {
			pl.Dec = translate.ChoosePlan(nil, pl.Tr.Query, s, nil)
		}
	}
	for _, st := range q.Steps {
		if st.Pred != nil {
			pl.lits = append(pl.lits, st.Pred.Value)
		}
	}
	pl.targets(s, g)
	return pl, nil
}

// Translator serves every text by Translate under default options, for
// appliers that write without a planner's cache.
func Translator(s *schema.Schema) func(text string, safe bool) (*Plan, error) {
	return func(text string, safe bool) (*Plan, error) { return Translate(s, text, safe, core.Options{}) }
}

// targets derives what a write reads off the path: the accepting schema
// nodes by relation and, where those are several, each block's relation.
func (pl *Plan) targets(s *schema.Schema, g *pathid.Graph) {
	if g.Empty() {
		pl.TargetErr = "path matches no position of schema " + s.Name
		return
	}
	for _, acc := range g.Accepts() {
		if sid := g.Node(acc).Schema; !slices.Contains(pl.Nodes, sid) {
			pl.Nodes = append(pl.Nodes, sid)
		}
	}
	slices.Sort(pl.Nodes)
	pl.ByRel = map[string][]schema.NodeID{}
	for _, sid := range pl.Nodes {
		sn := s.Node(sid)
		if !sn.HasRelation() {
			pl.TargetErr = fmt.Sprintf("path ends at %s, which produces no tuple; address the enclosing tuple-producing element instead", sn.Name)
			return
		}
		pl.ByRel[sn.Relation] = append(pl.ByRel[sn.Relation], sid)
	}
	if len(pl.ByRel) > 1 {
		q := pl.Tr.Query
		pl.BlockRel = make([]string, len(q.Selects))
		for i, sel := range q.Selects {
			pl.BlockRel[i] = blockRelation(g, q.With, sel)
		}
	}
}

// blockRelation returns the relation behind a result block's projected
// alias: a base table, a CTE of one table's rows (select R.*), or a
// recursive component's CTE, whose member the block pins with node = k. A
// block of another shape yields a name a write rejects.
func blockRelation(g *pathid.Graph, with []sqlast.CTE, sel *sqlast.Select) string {
	col, _ := sel.Cols[0].Expr.(sqlast.ColRef)
	alias := col.Table
	for {
		src := alias
		for _, f := range sel.From {
			if f.Alias == alias {
				src = f.Source
			}
		}
		i := slices.IndexFunc(with, func(c sqlast.CTE) bool { return c.Name == src })
		if i < 0 {
			return src
		}
		if body := with[i].Body.Selects[0]; body.Cols[0].Star {
			sel, alias = body, body.Cols[0].StarTable
			continue
		}
		for _, c := range sqlast.Conjuncts(sel.Where) {
			if c, ok := c.(sqlast.Cmp); ok && c.Left == sqlast.Expr(sqlast.ColRef{Table: alias, Column: "node"}) {
				if k, ok := c.Right.(sqlast.Lit); ok {
					return g.SchemaNode(int(k.Value.AsInt())).Relation
				}
			}
		}
		return src
	}
}

// Bindable reports whether a text's literals may bind a plan translated
// from another text of its shape. They may when they are pairwise distinct,
// none is the text of a constant of s's conditions, and none holds a quote.
// PathId and pruning compare a predicate value only for equality, with other
// predicate values and with those constants, so under such literals every
// comparison, and with it every pruning decision, comes out as it did for
// the template's. Without a quote, a value renders unambiguously inside the
// condition lists core compares as strings.
func Bindable(s *schema.Schema, lits []string) bool {
	for i, l := range lits {
		if slices.Contains(lits[:i], l) || s.IsConstant(l) || strings.IndexByte(l, '\'') >= 0 {
			return false
		}
	}
	return true
}

// Bind returns the plan of the text of pl's shape whose literals are lits,
// which Bindable admits: pl itself when they are pl's own, so its compiled
// plan serves on, else a copy whose query swaps each of pl's literals for
// the text's. The copy shares every block that holds no literal.
func (pl *Plan) Bind(lits []string) *Plan {
	if slices.Equal(lits, pl.lits) {
		return pl
	}
	b := *pl
	tr, dec := *pl.Tr, *pl.Dec
	tr.Query, _ = bindQuery(pl.Tr.Query, pl.lits, lits)
	dec.Query = tr.Query
	b.Tr, b.Dec, b.lits = &tr, &dec, slices.Clone(lits)
	return &b
}

// bindQuery returns q with each string literal from[i] swapped for to[i],
// and whether it swapped any; it copies only the CTEs and blocks that hold
// one.
func bindQuery(q *sqlast.Query, from, to []string) (*sqlast.Query, bool) {
	var with []sqlast.CTE
	for i, c := range q.With {
		if body, ok := bindQuery(c.Body, from, to); ok {
			if with == nil {
				with = slices.Clone(q.With)
			}
			with[i].Body = body
		}
	}
	var sels []*sqlast.Select
	for i, sel := range q.Selects {
		if where, ok := bindExpr(sel.Where, from, to); ok {
			if sels == nil {
				sels = slices.Clone(q.Selects)
			}
			c := *sel
			c.Where = where
			sels[i] = &c
		}
	}
	if with == nil && sels == nil {
		return q, false
	}
	if with == nil {
		with = q.With
	}
	if sels == nil {
		sels = q.Selects
	}
	return &sqlast.Query{With: with, Selects: sels}, true
}

// bindExpr returns e with each string literal from[i] swapped for to[i], and
// whether it swapped any; it copies only the nodes above a swap. A
// predicate value reaches the SQL only as the right side of a comparison
// (translate.CondExpr) inside conjunctions and disjunctions.
func bindExpr(e sqlast.Expr, from, to []string) (sqlast.Expr, bool) {
	switch e := e.(type) {
	case sqlast.Lit:
		if e.Value.Kind() == relational.KindString {
			if i := slices.Index(from, e.Value.AsString()); i >= 0 {
				return sqlast.StringLit(to[i]), true
			}
		}
	case sqlast.Cmp:
		l, lok := bindExpr(e.Left, from, to)
		r, rok := bindExpr(e.Right, from, to)
		if lok || rok {
			return sqlast.Cmp{Op: e.Op, Left: l, Right: r}, true
		}
	case sqlast.And:
		if kids, ok := bindKids(e.Kids, from, to); ok {
			return sqlast.And{Kids: kids}, true
		}
	case sqlast.Or:
		if kids, ok := bindKids(e.Kids, from, to); ok {
			return sqlast.Or{Kids: kids}, true
		}
	}
	return e, false
}

func bindKids(kids []sqlast.Expr, from, to []string) ([]sqlast.Expr, bool) {
	var out []sqlast.Expr
	for i, k := range kids {
		if b, ok := bindExpr(k, from, to); ok {
			if out == nil {
				out = slices.Clone(kids)
			}
			out[i] = b
		}
	}
	return out, out != nil
}
