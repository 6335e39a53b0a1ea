package update

import (
	"context"
	"fmt"
	"sort"

	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/xmltree"
)

// plan stages one mutation's effects on its resolved targets. Planning never
// writes: every effect lands in the staging image and its DML statement
// list, to be audited and then applied as one atomic batch.
func (a *Applier) plan(ctx context.Context, st *staging, idx int, m Mutation, targets []target) error {
	var elem *xmltree.Node
	if m.Op == OpInsert || m.Op == OpReplace {
		doc, err := xmltree.ParseString(m.XML)
		if err != nil {
			return &Error{Kind: ErrConform, Index: idx, Path: m.Path, Msg: "parsing subtree: " + err.Error()}
		}
		elem = doc.Root
	}

	for _, t := range targets {
		for _, id := range t.ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			switch m.Op {
			case OpInsert:
				if err := a.planInsert(ctx, st, idx, m, t, id, elem); err != nil {
					return err
				}
			case OpDelete:
				if err := a.planDelete(ctx, st, idx, t.rel, id); err != nil {
					return err
				}
			case OpReplace:
				if err := a.planReplace(ctx, st, idx, m, t, id, elem); err != nil {
					return err
				}
			default:
				return &Error{Kind: ErrPath, Index: idx, Path: m.Path, Msg: "unknown operation " + m.Op.String()}
			}
		}
	}
	return nil
}

// planInsert attaches the subtree under one target tuple. The subtree must
// conform at a schema child of the target's node — alignment picks the first
// child (in schema declaration order) whose subtree accepts the element,
// exactly as document-root shredding does.
func (a *Applier) planInsert(ctx context.Context, st *staging, idx int, m Mutation, t target, ownerID int64, elem *xmltree.Node) error {
	sn := a.s.Node(t.sid)
	var al *shred.Alignment
	var pending []pendingCond
	for _, e := range sn.Children() {
		got, err := shred.AlignAt(a.s, elem, e.To)
		if err != nil {
			continue
		}
		al = got
		if e.Cond != nil {
			pending = append(pending, pendingCond{col: e.Cond.Column, value: e.Cond.Value})
		}
		break
	}
	if al == nil {
		return &Error{Kind: ErrConform, Index: idx, Path: m.Path,
			Msg: fmt.Sprintf("subtree <%s> conforms to no child of %s", elem.Label, sn.Name)}
	}

	ownRow, ok, err := st.lookup(ctx, t.rel, ownerID)
	if err != nil {
		return fmt.Errorf("update: loading target %s.id=%d: %w", t.rel, ownerID, err)
	}
	if !ok {
		return &Error{Kind: ErrConflict, Index: idx, Path: m.Path,
			Msg: fmt.Sprintf("target %s.id=%d was removed earlier in the batch", t.rel, ownerID)}
	}
	own := &owner{rel: t.rel, id: ownerID, row: cloneRow(ownRow)}
	return a.walkSubtree(st, idx, m, al, elem, own, pending)
}

// planDelete removes one target tuple and its whole subtree: a breadth-first
// sweep over the batch's current view (staged inserts under the target are
// swept too), then one DELETE ... WHERE id IN (...) per touched relation.
func (a *Applier) planDelete(ctx context.Context, st *staging, idx int, rel string, id int64) error {
	if st.isDeleted(rel, id) {
		return nil // another mutation already removed it
	}
	view := &overlayProbe{base: a.probe, st: st}
	doomed := map[string][]int64{}

	type ref struct {
		rel string
		id  int64
	}
	frontier := []ref{{rel, id}}
	st.stageDelete(idx, rel, id)
	doomed[rel] = append(doomed[rel], id)
	for len(frontier) > 0 {
		parents := make([]int64, 0, len(frontier))
		for _, r := range frontier {
			parents = append(parents, r.id)
		}
		sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
		frontier = frontier[:0]
		for _, crel := range a.s.Relations() {
			if err := ctx.Err(); err != nil {
				return err
			}
			rows, err := view.FetchByParent(ctx, crel, parents)
			if err != nil {
				return fmt.Errorf("update: sweeping children in %s: %w", crel, err)
			}
			for _, row := range rows {
				if len(row) == 0 || row[0].IsNull() || row[0].Kind() != relational.KindInt {
					continue
				}
				cid := row[0].AsInt()
				if st.isDeleted(crel, cid) {
					continue
				}
				st.stageDelete(idx, crel, cid)
				doomed[crel] = append(doomed[crel], cid)
				frontier = append(frontier, ref{crel, cid})
			}
		}
	}

	rels := make([]string, 0, len(doomed))
	for r := range doomed {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		ids := doomed[r]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		list := make([]sqlast.Lit, len(ids))
		for i, v := range ids {
			list[i] = sqlast.IntLit(v)
		}
		st.appendStmt(&sqlast.DeleteStmt{Table: r,
			Where: sqlast.In{Left: sqlast.ColRef{Column: schema.IDColumn}, List: list}})
	}
	return nil
}

// planReplace substitutes a new subtree for one target tuple at the same
// schema position: the old subtree is deleted, and the replacement root
// inherits the old tuple's parent link and materialized edge-condition
// columns (they are what placed the old tuple at this position, and the new
// tuple takes the same position by definition).
func (a *Applier) planReplace(ctx context.Context, st *staging, idx int, m Mutation, t target, id int64, elem *xmltree.Node) error {
	al, err := shred.AlignAt(a.s, elem, t.sid)
	if err != nil {
		return &Error{Kind: ErrConform, Index: idx, Path: m.Path,
			Msg: fmt.Sprintf("replacement <%s> does not conform at %s: %v", elem.Label, a.s.Node(t.sid).Name, err)}
	}
	oldRow, ok, err := st.lookup(ctx, t.rel, id)
	if err != nil {
		return fmt.Errorf("update: loading target %s.id=%d: %w", t.rel, id, err)
	}
	if !ok {
		return &Error{Kind: ErrConflict, Index: idx, Path: m.Path,
			Msg: fmt.Sprintf("target %s.id=%d was removed earlier in the batch", t.rel, id)}
	}

	if err := a.planDelete(ctx, st, idx, t.rel, id); err != nil {
		return err
	}

	// Re-materialize the old tuple's placement as pending conditions for the
	// replacement root; its own node conditions are re-applied by the walk
	// and must agree (the conflict check catches mismatched placements).
	ts := a.tss[t.rel]
	var pending []pendingCond
	for _, c := range a.defs[t.rel].CondColumns {
		if v := rowValue(ts, oldRow, c.Name); !v.IsNull() {
			pending = append(pending, pendingCond{col: c.Name, value: v})
		}
	}
	var own *owner
	if pid, ok := parentID(oldRow); ok {
		// Only the id feeds the new tuple's parent link; the relation is
		// irrelevant because the replacement root is itself tuple-producing.
		own = &owner{id: pid, parentOnly: true}
	}
	return a.walkSubtree(st, idx, m, al, elem, own, pending)
}

// pendingCond mirrors the shredder's pending edge conditions: a column value
// owed to the next tuple-producing element down the walk.
type pendingCond struct {
	col   string
	value relational.Value
}

// owner mirrors the shredder's nearest-annotated-ancestor state. fresh marks
// tuples this batch creates (their rows are built up before the INSERT is
// emitted); existing owners get UPDATE statements per written value column.
type owner struct {
	rel        string
	id         int64
	row        relational.Row
	fresh      bool
	parentOnly bool // only id is valid (replace root's parent link)
	mutIdx     int
}

// walkSubtree decomposes an aligned subtree exactly as the shredder's walk
// does — same owner threading, same pending-condition semantics, same
// conflict checks — but emits staged DML instead of direct store inserts.
func (a *Applier) walkSubtree(st *staging, idx int, m Mutation, al *shred.Alignment, elem *xmltree.Node, own *owner, pending []pendingCond) error {
	var created []*owner

	var walk func(n *xmltree.Node, own *owner, pending []pendingCond) error
	walk = func(n *xmltree.Node, own *owner, pending []pendingCond) error {
		sid, ok := al.SchemaNodeOf(n)
		if !ok {
			return fmt.Errorf("update: internal: element <%s> not aligned", n.Label)
		}
		sn := a.s.Node(sid)

		cur := own
		if sn.HasRelation() {
			ts := a.tss[sn.Relation]
			row := make(relational.Row, len(ts.Columns))
			for i := range row {
				row[i] = relational.Null
			}
			id := a.freshID()
			row[0] = relational.Int(id)
			if own != nil {
				row[1] = relational.Int(own.id)
			}
			set := func(col string, v relational.Value) error {
				ci := ts.ColumnIndex(col)
				if ci < 0 {
					return &Error{Kind: ErrConform, Index: idx, Path: m.Path,
						Msg: fmt.Sprintf("relation %s has no column %s", sn.Relation, col)}
				}
				if prev := row[ci]; !prev.IsNull() && !prev.Identical(v) {
					return &Error{Kind: ErrConflict, Index: idx, Path: m.Path,
						Msg: fmt.Sprintf("relation %s: conflicting conditions on column %s", sn.Relation, col)}
				}
				row[ci] = v
				return nil
			}
			for _, nc := range sn.Conds {
				if err := set(nc.Column, nc.Value); err != nil {
					return err
				}
			}
			for _, pc := range pending {
				if err := set(pc.col, pc.value); err != nil {
					return err
				}
			}
			cur = &owner{rel: sn.Relation, id: id, row: row, fresh: true, mutIdx: idx}
			created = append(created, cur)
			st.stageInsert(idx, sn.Relation, id, row)
			pending = nil
		}

		if sn.Column != "" && sn.Column != schema.IDColumn {
			ownRel, err := a.s.OwnerRelation(sid)
			if err != nil {
				return &Error{Kind: ErrConform, Index: idx, Path: m.Path, Msg: err.Error()}
			}
			if cur == nil || cur.parentOnly || cur.rel != ownRel {
				return &Error{Kind: ErrConform, Index: idx, Path: m.Path,
					Msg: fmt.Sprintf("element <%s>: value column %s.%s has no live owner tuple", n.Label, ownRel, sn.Column)}
			}
			ts := a.tss[ownRel]
			ci := ts.ColumnIndex(sn.Column)
			if ci < 0 || ci >= len(cur.row) {
				return &Error{Kind: ErrConform, Index: idx, Path: m.Path,
					Msg: fmt.Sprintf("relation %s has no column %s", ownRel, sn.Column)}
			}
			if !cur.row[ci].IsNull() {
				if cur.fresh {
					return &Error{Kind: ErrConflict, Index: idx, Path: m.Path,
						Msg: fmt.Sprintf("element <%s>: column %s.%s set twice", n.Label, ownRel, sn.Column)}
				}
				return &Error{Kind: ErrConflict, Index: idx, Path: m.Path,
					Msg: fmt.Sprintf("element <%s>: column %s.%s already holds a value on tuple id=%d; replace the enclosing element instead", n.Label, ownRel, sn.Column, cur.id)}
			}
			v := relational.String(n.Text)
			cur.row[ci] = v
			if !cur.fresh {
				st.stageRewrite(idx, ownRel, cur.id, cur.row)
				st.appendStmt(&sqlast.UpdateStmt{Table: ownRel,
					Set:   []sqlast.Assign{{Column: sn.Column, Value: sqlast.Lit{Value: v}}},
					Where: sqlast.Eq(sqlast.ColRef{Column: schema.IDColumn}, sqlast.IntLit(cur.id))})
			}
		}

		for _, c := range n.Children {
			cid, ok := al.SchemaNodeOf(c)
			if !ok {
				return fmt.Errorf("update: internal: element <%s> not aligned", c.Label)
			}
			e := a.s.EdgeBetween(sid, cid)
			if e == nil {
				return fmt.Errorf("update: internal: no schema edge %s -> %s", sn.Name, a.s.Node(cid).Name)
			}
			childPending := pending
			if e.Cond != nil {
				childPending = append(append([]pendingCond(nil), pending...),
					pendingCond{col: e.Cond.Column, value: e.Cond.Value})
			}
			if err := walk(c, cur, childPending); err != nil {
				return err
			}
		}
		return nil
	}

	if err := walk(elem, own, pending); err != nil {
		return err
	}

	// One INSERT per relation, rows in creation (document) order.
	byRel := map[string]*sqlast.InsertStmt{}
	var order []string
	for _, ow := range created {
		ins := byRel[ow.rel]
		if ins == nil {
			ts := a.tss[ow.rel]
			cols := make([]string, len(ts.Columns))
			for i, c := range ts.Columns {
				cols[i] = c.Name
			}
			ins = &sqlast.InsertStmt{Table: ow.rel, Columns: cols}
			byRel[ow.rel] = ins
			order = append(order, ow.rel)
		}
		vals := make([]sqlast.Lit, len(ow.row))
		for i, v := range ow.row {
			vals[i] = sqlast.Lit{Value: v}
		}
		ins.Rows = append(ins.Rows, vals)
	}
	for _, rel := range order {
		st.appendStmt(byRel[rel])
	}
	return nil
}

func cloneRow(r relational.Row) relational.Row {
	out := make(relational.Row, len(r))
	copy(out, r)
	return out
}
