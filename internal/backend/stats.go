package backend

import (
	"context"
	"fmt"

	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
)

// CollectStats counts the rows of every relation of the mapping s over any
// Backend, with one dialect-rendered single-column SELECT per mapped
// relation. No plan reads the result; it is kept for the repository
// benchmark's collection probe.
func CollectStats(ctx context.Context, b Backend, s *schema.Schema) (*stats.Stats, error) {
	rels, err := s.DeriveRelations()
	if err != nil {
		return nil, fmt.Errorf("backend: collect stats: %w", err)
	}
	out := stats.New()
	for _, rel := range rels {
		ts := rel.TableSchema()
		probe := sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col(ts.Name, ts.Columns[0].Name)},
			From: []sqlast.FromItem{sqlast.From(ts.Name, ts.Name)},
		})
		res, err := b.Execute(ctx, probe)
		if err != nil {
			return nil, fmt.Errorf("backend: collect stats: probe %s: %w", ts.Name, err)
		}
		out.Add(ts.Name, int64(len(res.Rows)))
	}
	return out, nil
}
