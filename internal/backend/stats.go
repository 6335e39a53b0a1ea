package backend

import (
	"context"
	"fmt"

	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
)

// StatsCollector is implemented by backends that can produce their own
// statistics snapshot better than the generic probe path: Mem maintains its
// statistics from each committed batch's change list, and the sharded
// composite caches per-shard snapshots keyed by shard version and recollects
// only mutated shards.
type StatsCollector interface {
	CollectStats(ctx context.Context, s *schema.Schema) (*stats.Stats, error)
}

// CollectStats gathers a statistics snapshot over any Backend for the
// relations of the mapping s. A StatsCollector answers for itself; other
// backends are probed with one dialect-rendered SELECT * per mapped
// relation, feeding the same stats.CollectRows kernel — so identical data
// yields identical statistics regardless of where it lives. A probed
// snapshot carries version 0.
func CollectStats(ctx context.Context, b Backend, s *schema.Schema) (*stats.Stats, error) {
	if sc, ok := b.(StatsCollector); ok {
		return sc.CollectStats(ctx, s)
	}
	rels, err := s.DeriveRelations()
	if err != nil {
		return nil, fmt.Errorf("backend: collect stats: %w", err)
	}
	tables := make([]*stats.TableStats, 0, len(rels))
	for _, rel := range rels {
		ts := rel.TableSchema()
		cols := make([]sqlast.SelectItem, len(ts.Columns))
		names := make([]string, len(ts.Columns))
		for i, c := range ts.Columns {
			cols[i] = sqlast.Col(ts.Name, c.Name)
			names[i] = c.Name
		}
		probe := sqlast.SingleSelect(&sqlast.Select{
			Cols: cols,
			From: []sqlast.FromItem{sqlast.From(ts.Name, ts.Name)},
		})
		res, err := b.Execute(ctx, probe)
		if err != nil {
			return nil, fmt.Errorf("backend: collect stats: probe %s: %w", ts.Name, err)
		}
		tables = append(tables, stats.CollectRows(ts.Name, names, res.Rows))
	}
	return stats.Merge(0, tables), nil
}
