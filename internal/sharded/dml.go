package sharded

import (
	"context"
	"fmt"
	"sort"

	"xmlsql/internal/backend"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// ApplyDML implements backend.DML by routing each statement of the batch to
// the shard(s) owning the rows it touches.
//
// An update batch's footprint is a set of whole subtrees, and subtrees live
// inside one document, so a document-scoped batch (the common case — every
// path-targeted update of a single document) resolves to exactly one shard
// and applies with that shard's full atomicity. A batch whose path matched
// elements in several documents splits per shard and applies shard-by-shard
// in shard order: each shard's portion is atomic, and since the whole batch
// was integrity-validated against the staged global instance before any
// shard commits, a mid-sequence backend fault can leave earlier shards
// committed (the returned error says so) but never an invalid shard.
//
// Routing reads ids out of the statement shapes the update planner emits —
// id IN (...) deletes, id = k updates, full-column inserts — via the
// id→shard router. DELETE and UPDATE statements whose predicate does not pin
// ids broadcast to every shard, which is always correct because the shards
// partition the rows. INSERT rows must route (a row materializes on exactly
// one shard): each row goes where its parent lives; a row with a NULL
// parentid starts a new document and is placed by the partitioner. Ids
// minted by the batch are registered to their shard once it commits, so
// follow-up batches and integrity probes route to them.
func (c *Sharded) ApplyDML(ctx context.Context, stmts []sqlast.DMLStmt) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	n := len(c.shards)
	perShard := make([][]sqlast.DMLStmt, n)
	freshByShard := make([][]int64, n)
	batchFresh := map[int64]int{} // ids inserted earlier in this batch

	for _, st := range stmts {
		switch s := st.(type) {
		case *sqlast.InsertStmt:
			idCol, parentCol := -1, -1
			for i, col := range s.Columns {
				switch col {
				case schema.IDColumn:
					idCol = i
				case schema.ParentIDColumn:
					parentCol = i
				}
			}
			if idCol < 0 {
				return fmt.Errorf("sharded: insert into %s carries no %s column; cannot route", s.Table, schema.IDColumn)
			}
			rowsByShard := map[int][][]sqlast.Lit{}
			var order []int
			for _, row := range s.Rows {
				if idCol >= len(row) || row[idCol].Value.Kind() != relational.KindInt {
					return fmt.Errorf("sharded: insert into %s: non-integer %s", s.Table, schema.IDColumn)
				}
				id := row[idCol].Value.AsInt()
				k := -1
				if parentCol >= 0 && parentCol < len(row) && row[parentCol].Value.Kind() == relational.KindInt {
					parent := row[parentCol].Value.AsInt()
					if kk, ok := batchFresh[parent]; ok {
						k = kk
					} else if kk := c.shardOf(parent); kk >= 0 {
						k = kk
					} else {
						return fmt.Errorf("sharded: insert into %s: parent id %d is on no shard", s.Table, parent)
					}
				} else {
					// NULL parentid: a new document root; the partitioner
					// places it like a loaded document.
					k = c.part(c.docCount, id) % n
					if k < 0 {
						k = -k
					}
					c.docCount++
					c.docs[k]++
				}
				if _, seen := rowsByShard[k]; !seen {
					order = append(order, k)
				}
				rowsByShard[k] = append(rowsByShard[k], row)
				batchFresh[id] = k
				freshByShard[k] = append(freshByShard[k], id)
			}
			for _, k := range order {
				perShard[k] = append(perShard[k], &sqlast.InsertStmt{
					Table: s.Table, Columns: s.Columns, Rows: rowsByShard[k],
				})
			}
		case *sqlast.DeleteStmt:
			for _, k := range c.routeWhere(s.Where, batchFresh) {
				perShard[k] = append(perShard[k], s)
			}
		case *sqlast.UpdateStmt:
			for _, k := range c.routeWhere(s.Where, batchFresh) {
				perShard[k] = append(perShard[k], s)
			}
		default:
			return fmt.Errorf("sharded: unsupported DML statement %T", st)
		}
	}

	applied := 0
	for k := 0; k < n; k++ {
		if len(perShard[k]) == 0 {
			continue
		}
		dml, ok := c.shards[k].(backend.DML)
		if !ok {
			return fmt.Errorf("sharded: shard %d (%s) does not support DML", k, c.shards[k].Name())
		}
		if err := dml.ApplyDML(ctx, perShard[k]); err != nil {
			if applied > 0 {
				return fmt.Errorf("sharded: shard %d: %w (cross-document batch: %d earlier shard(s) already committed)", k, err, applied)
			}
			return fmt.Errorf("sharded: shard %d: %w", k, err)
		}
		applied++
		c.registerIDs(freshByShard[k], k)
	}
	return nil
}

// routeWhere resolves a DELETE/UPDATE predicate to the shards that can hold
// matching rows. A nil predicate matches nothing (DeleteStmt semantics) and
// routes nowhere; a predicate that does not pin ids routes everywhere —
// sound because the shards partition the rows. Pinned ids unknown to the
// router match no stored row and contribute no shard.
func (c *Sharded) routeWhere(e sqlast.Expr, batchFresh map[int64]int) []int {
	if e == nil {
		return nil
	}
	ids, ok := pinnedIDs(e)
	if !ok {
		all := make([]int, len(c.shards))
		for i := range all {
			all[i] = i
		}
		return all
	}
	set := map[int]bool{}
	for _, id := range ids {
		if k, okk := batchFresh[id]; okk {
			set[k] = true
		} else if k := c.shardOf(id); k >= 0 {
			set[k] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// pinnedIDs extracts the element ids a predicate confines its rows to, when
// it provably does: id/parentid equality, id/parentid IN lists, any AND with
// at least one pinning conjunct, an OR of all-pinning disjuncts. (A parentid
// pin routes correctly because children live on their parent's shard.)
func pinnedIDs(e sqlast.Expr) ([]int64, bool) {
	switch v := e.(type) {
	case sqlast.Cmp:
		if v.Op != sqlast.OpEq {
			return nil, false
		}
		if id, ok := keyEqLit(v.Left, v.Right); ok {
			return []int64{id}, true
		}
		if id, ok := keyEqLit(v.Right, v.Left); ok {
			return []int64{id}, true
		}
		return nil, false
	case sqlast.In:
		if !isKeyCol(v.Left) {
			return nil, false
		}
		ids := make([]int64, 0, len(v.List))
		for _, l := range v.List {
			if l.Value.Kind() != relational.KindInt {
				return nil, false
			}
			ids = append(ids, l.Value.AsInt())
		}
		return ids, true
	case sqlast.And:
		for _, k := range v.Kids {
			if ids, ok := pinnedIDs(k); ok {
				return ids, true
			}
		}
		return nil, false
	case sqlast.Or:
		var all []int64
		for _, k := range v.Kids {
			ids, ok := pinnedIDs(k)
			if !ok {
				return nil, false
			}
			all = append(all, ids...)
		}
		return all, true
	}
	return nil, false
}

func keyEqLit(col, lit sqlast.Expr) (int64, bool) {
	if !isKeyCol(col) {
		return 0, false
	}
	l, ok := lit.(sqlast.Lit)
	if !ok || l.Value.Kind() != relational.KindInt {
		return 0, false
	}
	return l.Value.AsInt(), true
}

func isKeyCol(e sqlast.Expr) bool {
	c, ok := e.(sqlast.ColRef)
	return ok && (c.Column == schema.IDColumn || c.Column == schema.ParentIDColumn)
}
