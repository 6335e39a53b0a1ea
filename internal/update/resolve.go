package update

import (
	"context"
	"fmt"
	"slices"

	"xmlsql/internal/integrity"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
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
// The plan comes from a.plans, a planner's cache entry bound to the path's
// literals, with the accepting nodes and block relations derived once per
// entry. A write thus addresses exactly the elements a read returns in the
// same trust state. Accepting nodes project the tuple id, so the rows *are*
// the target ids. Where the path accepts several nodes of one relation, an
// id's node is where the auditor places it (integrity.Place); insert and
// replace reject an id placed at none of them, a delete removes it with the
// first.
//
// Resolution always runs against the pre-batch instance (the Source sees no
// staged effects), giving batches snapshot semantics.
func (a *Applier) resolve(ctx context.Context, idx int, m Mutation, safe bool) ([]target, error) {
	fail := func(kind ErrorKind, msg string) error {
		return &Error{Kind: kind, Index: idx, Path: m.Path, Msg: msg}
	}
	pl, err := a.plans(m.Path, safe)
	if err != nil {
		return nil, fail(ErrPath, err.Error())
	}
	if pl.TargetErr != "" {
		return nil, fail(ErrTarget, pl.TargetErr)
	}
	q, rel := pl.Tr.Query, a.s.Node(pl.Nodes[0]).Relation
	if pl.BlockRel != nil { // a second column names each row's relation
		// The plan may be a cached template: name the relations on a copy.
		named := &sqlast.Query{With: q.With, Selects: make([]*sqlast.Select, len(q.Selects))}
		for i, sel := range q.Selects {
			c := *sel
			c.Cols = []sqlast.SelectItem{sel.Cols[0], {Expr: sqlast.StringLit(pl.BlockRel[i])}}
			named.Selects[i] = &c
		}
		q = named
	}
	res, err := a.src.Execute(ctx, q)
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
		rids, nodes := slices.Compact(rids), pl.ByRel[rel]
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
	out := make([]target, len(pl.Nodes))
	for i, sid := range pl.Nodes {
		out[i] = target{sid: sid, rel: a.s.Node(sid).Relation, ids: bySid[sid]}
	}
	return out, nil
}
