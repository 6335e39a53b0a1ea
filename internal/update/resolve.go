package update

import (
	"context"
	"fmt"
	"slices"

	"xmlsql/internal/core"
	"xmlsql/internal/integrity"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
)

// target is one resolved schema position a mutation addresses, with the ids
// of the tuples sitting there in the pre-batch instance.
type target struct {
	sid schema.NodeID
	rel string
	ids []int64
}

// resolve turns a mutation's path expression into concrete target tuples by
// running, once, the translation a read of the same path is served: the
// pruned one, or the baseline of [9] when pruning falls back or safe is set.
// A write thus addresses exactly the elements a read returns in the same
// trust state. Accepting nodes project the tuple id, so the rows *are* the
// target ids. Where the path accepts several nodes of one relation, an id's
// node is where the auditor places it (integrity.Place); insert and replace
// reject an id placed at none of them, a delete removes it with the first.
//
// Resolution always runs against the pre-batch instance (the Source sees no
// staged effects), giving batches snapshot semantics.
func (a *Applier) resolve(ctx context.Context, idx int, m Mutation, safe bool) ([]target, error) {
	fail := func(kind ErrorKind, msg string) error {
		return &Error{Kind: kind, Index: idx, Path: m.Path, Msg: msg}
	}
	p, err := pathexpr.Parse(m.Path)
	if err != nil {
		return nil, fail(ErrPath, err.Error())
	}
	g, err := pathid.Build(a.s, p)
	if err != nil {
		return nil, fail(ErrPath, err.Error())
	}
	if g.Empty() {
		return nil, fail(ErrTarget, "path matches no position of schema "+a.s.Name)
	}
	var sids []schema.NodeID
	for _, acc := range g.Accepts() {
		if sid := g.Node(acc).Schema; !slices.Contains(sids, sid) {
			sids = append(sids, sid)
		}
	}
	slices.Sort(sids)
	accepts := map[string][]schema.NodeID{} // relation -> its accepting nodes
	for _, sid := range sids {
		sn := a.s.Node(sid)
		if !sn.HasRelation() {
			return nil, fail(ErrTarget, fmt.Sprintf("path ends at %s, which produces no tuple; address the enclosing tuple-producing element instead", sn.Name))
		}
		accepts[sn.Relation] = append(accepts[sn.Relation], sid)
	}

	tr := &core.Result{}
	if safe {
		tr.Query, err = translate.Naive(g)
	} else {
		tr, err = core.Translate(g)
	}
	if err != nil {
		return nil, fail(ErrPath, err.Error())
	}
	rel := a.s.Node(sids[0]).Relation
	if len(accepts) > 1 { // a second column names each row's relation
		// Only a fresh translation may be edited: a query that has run
		// carries the engine's plan compiled from its old text.
		if tr.Query.Compiled() != nil {
			return nil, fmt.Errorf("update: resolving %s would edit a query that has run", m.Path)
		}
		for _, sel := range tr.Query.Selects {
			sel.Cols = append(sel.Cols[:1:1], sqlast.SelectItem{Expr: sqlast.StringLit(blockRelation(g, tr.Query.With, sel))})
		}
	}
	res, err := a.src.Execute(ctx, tr.Query)
	if err != nil {
		return nil, fmt.Errorf("update: resolving %s: %w", m.Path, err)
	}
	ids := map[string][]int64{}
	for _, row := range res.Rows {
		if len(row) > 1 {
			rel = row[1].AsString()
		}
		if len(row) > 0 && !row[0].IsNull() && row[0].Kind() == relational.KindInt {
			ids[rel] = append(ids[rel], row[0].AsInt())
		}
	}

	bySid := map[schema.NodeID][]int64{}
	for rel, rids := range ids {
		slices.Sort(rids)
		rids, nodes := slices.Compact(rids), accepts[rel]
		if len(nodes) == 0 {
			return nil, fail(ErrPath, "translation reads "+rel+", which the path does not accept")
		}
		if len(nodes) == 1 {
			bySid[nodes[0]] = rids
			continue
		}
		placed, err := integrity.Place(ctx, a.probe, a.s, rel, rids)
		if err != nil {
			return nil, fmt.Errorf("update: placing targets of %s: %w", m.Path, err)
		}
		for _, id := range rids {
			sid, ok := placed[id]
			if !ok || !slices.Contains(nodes, sid) {
				if m.Op != OpDelete {
					return nil, fail(ErrTarget, fmt.Sprintf("target %s.id=%d places at no single position the path accepts", rel, id))
				}
				sid = nodes[0]
			}
			bySid[sid] = append(bySid[sid], id)
		}
	}
	out := make([]target, len(sids))
	for i, sid := range sids {
		out[i] = target{sid: sid, rel: a.s.Node(sid).Relation, ids: bySid[sid]}
	}
	return out, nil
}

// blockRelation returns the relation behind a result block's projected
// alias: a base table, a CTE of one table's rows (select R.*), or a
// recursive component's CTE, whose member the block pins with node = k. A
// block of another shape yields a name resolve rejects.
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
