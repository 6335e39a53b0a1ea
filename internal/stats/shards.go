package stats

// MergeShards folds per-shard statistics snapshots of one document-partitioned
// instance into a single logical snapshot, as if CollectStore had scanned the
// union of the shard stores. Because shards partition rows (no row lives on
// two shards), almost everything merges exactly:
//
//   - Rows, Nulls and TotalRows add;
//   - histograms add bucket-wise. A merged histogram that exceeds
//     HistogramCap demotes to a distinct count — still exact, since the
//     buckets were exhaustive.
//
// The one approximation: when any shard already overflowed its histogram for
// a column, the merged Distinct is the sum of the shard distinct counts — an
// upper bound, exact only when shards share no values in that column. For the
// columns the planner's selectivity math leans on (parentcode, kindcode, tag:
// tiny domains, histograms never overflow) the merge is exact; wide columns
// (ids, text) only ever feed coarse uniform-selectivity fallbacks, where an
// upper bound is the conservative choice.
//
// The merged Version is the sum of the shard versions, so any shard mutation
// moves it — the same staleness signal a single store's version provides.
func MergeShards(snaps []*Stats) *Stats {
	out := &Stats{Relations: map[string]*TableStats{}}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.Version += s.Version
		for name, t := range s.Relations {
			acc := out.Relations[name]
			if acc == nil {
				out.Relations[name] = copyTableStats(t)
				out.TotalRows += t.Rows
				continue
			}
			out.TotalRows += t.Rows
			mergeTableStats(acc, t)
		}
	}
	for _, t := range out.Relations {
		t.seal()
	}
	return out
}

func copyTableStats(t *TableStats) *TableStats {
	c := &TableStats{Relation: t.Relation, Rows: t.Rows, Columns: make(map[string]*ColumnStats, len(t.Columns))}
	for name, cs := range t.Columns {
		nc := *cs
		if cs.Histogram != nil {
			nc.Histogram = make(map[string]int64, len(cs.Histogram))
			for k, v := range cs.Histogram {
				nc.Histogram[k] = v
			}
		}
		c.Columns[name] = &nc
	}
	return c
}

func mergeTableStats(acc, t *TableStats) {
	acc.Rows += t.Rows
	for name, cs := range t.Columns {
		a := acc.Columns[name]
		if a == nil {
			nc := *cs
			if cs.Histogram != nil {
				nc.Histogram = make(map[string]int64, len(cs.Histogram))
				for k, v := range cs.Histogram {
					nc.Histogram[k] = v
				}
			}
			acc.Columns[name] = &nc
			continue
		}
		a.Nulls += cs.Nulls
		switch {
		case a.Histogram != nil && cs.Histogram != nil:
			for k, v := range cs.Histogram {
				a.Histogram[k] += v
			}
			a.Distinct = int64(len(a.Histogram))
			if len(a.Histogram) > HistogramCap {
				// Exhaustive buckets past the cap: keep the (exact) distinct
				// count, drop the histogram like CollectRows would.
				a.Histogram = nil
			}
		case a.Histogram == nil && cs.Histogram == nil && a.Distinct == 0 && cs.Distinct == 0:
			// Both empty-column cases: nothing to do.
		default:
			// At least one side overflowed (or is histogram-less): sum of
			// distincts is the documented upper-bound approximation.
			a.Distinct += cs.Distinct
			a.Histogram = nil
		}
	}
}
