package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// ShardedConfig sizes the sharded scatter-gather suite.
type ShardedConfig struct {
	// Scales are the document counts measured (the scale knob multiplies
	// document count, never document size).
	Scales []int
	// ShardCounts is the sweep: one composite per count, each differentially
	// verified against the single store.
	ShardCounts []int
	// MixedRounds is how many write+read rounds the mixed serving loop runs
	// per arm (each round: one document-scoped update, then MixedReads
	// planner reads).
	MixedRounds int
	// MixedReads is the reads-per-write ratio of the mixed loop.
	MixedReads int
}

// DefaultShardedConfig matches the recorded BENCH section: scale 10 and 100,
// shard counts 1/2/4/8.
func DefaultShardedConfig() ShardedConfig {
	return ShardedConfig{Scales: []int{10, 100}, ShardCounts: []int{1, 2, 4, 8}, MixedRounds: 6, MixedReads: 4}
}

// ShardedSweepPoint is one shard count's measurements at one scale.
type ShardedSweepPoint struct {
	Shards int `json:"shards"`

	// Pure-read scatter latency of the two translations (single-threaded
	// box: GOMAXPROCS=1 gives scatter no core parallelism, so these track
	// the single store plus fan-out/merge overhead).
	ReadNaiveNs  float64 `json:"read_naive_ns"`
	ReadPrunedNs float64 `json:"read_pruned_ns"`

	// Partition skew: per-shard document and row counts, and the largest
	// shard's share of all rows (1/shards is perfectly balanced).
	DocsPerShard []int64 `json:"docs_per_shard"`
	RowsPerShard []int64 `json:"rows_per_shard"`
	MaxRowShare  float64 `json:"max_row_share"`

	// Scatter fan-out cost: every query fans out to this many shards, and
	// each scatter pays this much merge time for this many gathered rows.
	ScatterFanout        int     `json:"scatter_fanout"`
	MergeNsPerScatter    float64 `json:"merge_ns_per_scatter"`
	MergedRowsPerScatter float64 `json:"merged_rows_per_scatter"`

	// Mixed read/write serving: mean ns per operation over rounds of one
	// document-scoped write + planner reads, against the identical loop on
	// the single store.
	MixedNsPerOp float64 `json:"mixed_ns_per_op"`
	MixedSpeedup float64 `json:"mixed_speedup_vs_single"`

	// Verified: sharded reads were multiset-identical to the single store
	// both before the mixed loop and after it (post-update differential).
	Verified bool `json:"verified"`
}

// ShardedComparison is the sweep for one workload at one scale.
type ShardedComparison struct {
	Workload string `json:"workload"`
	Query    string `json:"query"`
	Scale    int    `json:"scale"`
	Tuples   int    `json:"tuples"`

	// The single-store arm every sweep point is measured against.
	SingleNaiveNs  float64 `json:"single_naive_ns"`
	SinglePrunedNs float64 `json:"single_pruned_ns"`
	MixedNsPerOp   float64 `json:"single_mixed_ns_per_op"`

	Sweep []ShardedSweepPoint `json:"sweep"`
}

// ShardedReport is the "sharded" section of the JSON report.
type ShardedReport struct {
	GoMaxProcs int                  `json:"gomaxprocs"`
	Note       string               `json:"note"`
	Sweeps     []*ShardedComparison `json:"sweeps"`
}

// shardedNote is recorded verbatim so the numbers can't be misread.
const shardedNote = "pure-read scatter has no core parallelism at GOMAXPROCS=1; " +
	"a write resolves and audits on the shards it touches, and no read waits on statistics"

// shardedInstance generates the scale-document xmark instance the suite
// measures. Document 0 is generated one item-per-continent larger than the
// rest, so the item named after its extra Africa slot ("item-Af-50") exists
// in exactly one document — giving the mixed loop a genuinely
// document-scoped write target (every stock item name repeats in every
// document and would fan the write out to all shards).
func shardedInstance(scale int) []*xmltree.Document {
	docs := make([]*xmltree.Document, 0, scale)
	for i := 0; i < scale; i++ {
		items := 50
		if i == 0 {
			items = 51
		}
		docs = append(docs, workloads.GenerateXMark(workloads.XMarkConfig{
			ItemsPerContinent: items, CategoriesPerItem: 2, NumCategories: 50, Seed: int64(i + 1),
		}))
	}
	return docs
}

// shardedWriteBatch is the mixed loop's document-scoped write: a fresh
// InCategory under the item that exists only in document 0.
func shardedWriteBatch(serial int) xmlsql.UpdateBatch {
	return xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "//Item[name='item-Af-50']",
		XML:  fmt.Sprintf("<InCategory><Category>sharded-%d</Category></InCategory>", serial),
	}}}
}

// shardedTranslations builds the naive and pruned translations of query.
func shardedTranslations(query string) (*sqlast.Query, *sqlast.Query, error) {
	q, err := pathexpr.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	g, err := pathid.Build(workloads.XMark(), q)
	if err != nil {
		return nil, nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, nil, err
	}
	pruned, err := core.Translate(g)
	if err != nil {
		return nil, nil, err
	}
	return naive, pruned.Query, nil
}

// runMixed drives the mixed serving loop on one planner: MixedRounds rounds
// of one document-scoped write followed by MixedReads reads of
// query, returning mean ns per operation. serialBase keeps write payloads
// distinct across arms' warmups without changing the op count.
func runMixed(ctx context.Context, p *xmlsql.Planner, cfg ShardedConfig, query string) (float64, error) {
	ops := 0
	start := time.Now()
	for r := 0; r < cfg.MixedRounds; r++ {
		if _, err := p.Update(ctx, shardedWriteBatch(r)); err != nil {
			return 0, fmt.Errorf("mixed write %d: %w", r, err)
		}
		ops++
		for i := 0; i < cfg.MixedReads; i++ {
			if _, err := p.Exec(ctx, query); err != nil {
				return 0, fmt.Errorf("mixed read: %w", err)
			}
			ops++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// RunSharded measures the sharded scatter-gather composite against the
// single store on the scaled xmark workload: a shard-count sweep of
// pure-read scatter latency (with skew, fan-out, and merge overhead from the
// composite's own metrics) plus the mixed read/write serving comparison,
// every point differentially verified against the single store before and
// after its writes.
func RunSharded(cfg ShardedConfig) (*ShardedReport, error) {
	ctx := context.Background()
	s := workloads.XMark()
	query := workloads.QueryQ1
	naive, pruned, err := shardedTranslations(query)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReport{GoMaxProcs: runtime.GOMAXPROCS(0), Note: shardedNote}

	for _, scale := range cfg.Scales {
		docs := shardedInstance(scale)

		single := backend.NewMem()
		if _, err := single.Load(s, docs...); err != nil {
			return nil, fmt.Errorf("sharded: single load: %w", err)
		}
		cmp := &ShardedComparison{
			Workload: "xmark", Query: query, Scale: scale,
			Tuples: single.Store().TotalRows(),
		}
		singleExec := func(q *sqlast.Query) (*engine.Result, error) {
			return single.Execute(ctx, q)
		}
		cmp.SingleNaiveNs = measure(singleExec, naive)
		cmp.SinglePrunedNs = measure(singleExec, pruned)
		refRead, err := single.Execute(ctx, pruned)
		if err != nil {
			return nil, err
		}

		sp := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: single})
		cmp.MixedNsPerOp, err = runMixed(ctx, sp, cfg, query)
		if err != nil {
			return nil, fmt.Errorf("sharded: single mixed arm: %w", err)
		}
		refFinal, err := sp.Exec(ctx, query)
		if err != nil {
			return nil, err
		}

		for _, n := range cfg.ShardCounts {
			comp, err := sharded.NewMem(n, sharded.Options{})
			if err != nil {
				return nil, err
			}
			if _, err := comp.Load(s, docs...); err != nil {
				return nil, fmt.Errorf("sharded: %d-shard load: %w", n, err)
			}
			pt := ShardedSweepPoint{Shards: n, ScatterFanout: n, Verified: true}

			got, err := comp.Execute(ctx, pruned)
			if err != nil {
				return nil, err
			}
			if !refRead.MultisetEqual(got) {
				pt.Verified = false
			}
			compExec := func(q *sqlast.Query) (*engine.Result, error) {
				return comp.Execute(ctx, q)
			}
			pt.ReadNaiveNs = measure(compExec, naive)
			pt.ReadPrunedNs = measure(compExec, pruned)

			m, err := comp.Metrics(ctx)
			if err != nil {
				return nil, err
			}
			pt.DocsPerShard = m.DocsPerShard
			pt.RowsPerShard = m.RowsPerShard
			var total, max int64
			for _, r := range m.RowsPerShard {
				total += r
				if r > max {
					max = r
				}
			}
			if total > 0 {
				pt.MaxRowShare = float64(max) / float64(total)
			}
			if m.Scatters > 0 {
				pt.MergeNsPerScatter = float64(m.MergeNs) / float64(m.Scatters)
				pt.MergedRowsPerScatter = float64(m.MergedRows) / float64(m.Scatters)
			}

			cp := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: comp})
			pt.MixedNsPerOp, err = runMixed(ctx, cp, cfg, query)
			if err != nil {
				return nil, fmt.Errorf("sharded: %d-shard mixed arm: %w", n, err)
			}
			if pt.MixedNsPerOp > 0 {
				pt.MixedSpeedup = cmp.MixedNsPerOp / pt.MixedNsPerOp
			}

			// Post-update differential: both arms applied the identical
			// write sequence, so their reads must still agree.
			gotFinal, err := cp.Exec(ctx, query)
			if err != nil {
				return nil, err
			}
			if !refFinal.MultisetEqual(gotFinal) {
				pt.Verified = false
			}
			if err := comp.Close(); err != nil {
				return nil, err
			}
			cmp.Sweep = append(cmp.Sweep, pt)
		}
		rep.Sweeps = append(rep.Sweeps, cmp)
	}
	return rep, nil
}

// ShardedGate returns one error per gate violation: any unverified sweep
// point (the sharded ≡ unsharded differential, checked before and after the
// mixed writes), or a gateShards-shard mixed-serving speedup below
// minSpeedup at the largest measured scale.
func ShardedGate(rep *ShardedReport, gateShards int, minSpeedup float64) []error {
	var errs []error
	if rep == nil {
		return []error{fmt.Errorf("sharded: no report")}
	}
	maxScale := 0
	for _, c := range rep.Sweeps {
		if c.Scale > maxScale {
			maxScale = c.Scale
		}
	}
	for _, c := range rep.Sweeps {
		for _, pt := range c.Sweep {
			if !pt.Verified {
				errs = append(errs, fmt.Errorf("sharded %s scale=%d shards=%d: differential verification failed",
					c.Workload, c.Scale, pt.Shards))
			}
			if c.Scale == maxScale && pt.Shards == gateShards && pt.MixedSpeedup < minSpeedup {
				errs = append(errs, fmt.Errorf("sharded %s scale=%d shards=%d: mixed serving speedup %.2fx below gate %.2fx",
					c.Workload, c.Scale, pt.Shards, pt.MixedSpeedup, minSpeedup))
			}
		}
	}
	return errs
}

// FormatSharded renders the sweep tables for benchrunner's stdout report.
func FormatSharded(rep *ShardedReport) string {
	var b strings.Builder
	b.WriteString("Sharded scatter-gather: shard-count sweep vs single store\n")
	fmt.Fprintf(&b, "(%s)\n", rep.Note)
	for _, c := range rep.Sweeps {
		fmt.Fprintf(&b, "\n%s scale=%d (%d tuples, %s): single naive %s, pruned %s, mixed %s/op\n",
			c.Workload, c.Scale, c.Tuples, c.Query,
			fmtNs(c.SingleNaiveNs), fmtNs(c.SinglePrunedNs), fmtNs(c.MixedNsPerOp))
		fmt.Fprintf(&b, "%7s %10s %11s %10s %9s %10s %9s %9s\n",
			"shards", "read-naive", "read-pruned", "merge/scat", "max-share", "mixed/op", "mixed-spd", "verified")
		for _, pt := range c.Sweep {
			fmt.Fprintf(&b, "%7d %10s %11s %10s %8.0f%% %10s %8.2fx %9v\n",
				pt.Shards, fmtNs(pt.ReadNaiveNs), fmtNs(pt.ReadPrunedNs),
				fmtNs(pt.MergeNsPerScatter), pt.MaxRowShare*100,
				fmtNs(pt.MixedNsPerOp), pt.MixedSpeedup, pt.Verified)
		}
	}
	return b.String()
}
