package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/core"
	"xmlsql/internal/integrity"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/translate"
)

// The traced run spends its time on three things: the workload's closed
// loop as the untraced run drives it (with server-side times and answer
// sizes kept), the same loop with a span around every request and every
// stage the benchmark can call by itself, and probes that call each layer's
// public functions on the workload's own queries.
const (
	plainShare  = 0.30
	tracedShare = 0.20
	probeShare  = 0.40
)

// counters is a snapshot of the counters the layers keep themselves.
type counters struct {
	hits, misses, evictions float64
	statsCollects, updates  float64
	queries, shed           float64
	scatters, mergeNs, rows float64
	walRecords, walBytes    float64
	allocBytes, gcCPU, cpu  float64
	memoHits, memoMisses    float64
}

func (e *env) counters(ctx context.Context) counters {
	var c counters
	for _, t := range e.targets {
		ps := t.planner.Stats()
		c.hits += float64(ps.Hits)
		c.misses += float64(ps.Misses)
		c.evictions += float64(ps.Evictions)
		c.statsCollects += float64(ps.StatsCollects)
		c.updates += float64(ps.Updates)
		for _, m := range memBackends(t.planner.Backend()) {
			es := m.EngineStats()
			c.memoHits += float64(es.SharedHits)
			c.memoMisses += float64(es.SharedMisses)
		}
	}
	if e.srv != nil {
		for name, ts := range e.srv.Stats().Tenants {
			c.queries += float64(ts.Queries)
			c.shed += float64(ts.ShedRate + ts.ShedCapacity)
			if t := e.srv.Tenant(name); t != nil && t.WAL() != nil {
				ws := t.WAL().Stats()
				c.walRecords += float64(ws.Records)
				c.walBytes += float64(ws.Bytes)
			}
		}
	}
	if e.comp != nil {
		if m, err := e.comp.Metrics(ctx); err == nil {
			c.scatters, c.mergeNs, c.rows = float64(m.Scatters), float64(m.MergeNs), float64(m.MergedRows)
		}
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.cpu = s[2].Value.Float64()
	}
	return c
}

// memBackends returns the in-memory stores behind a backend: itself, or the
// shards of a composite.
func memBackends(b xmlsql.Backend) []*backend.Mem {
	switch b := b.(type) {
	case *backend.Mem:
		return []*backend.Mem{b}
	case *xmlsql.ShardedBackend:
		var out []*backend.Mem
		for _, sh := range b.Shards() {
			if m, ok := sh.(*backend.Mem); ok {
				out = append(out, m)
			}
		}
		return out
	}
	return nil
}

func hitRatio(before, after counters) float64 {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	return ratio(hits, hits+misses)
}

// checkHitRatio holds a workload to the plan-cache regime it was built
// for: cold-adhoc measures translation only while (nearly) every request
// misses, hot-line and rows-http measure the front ends only while (nearly)
// every request hits.
func (w *workloadDef) checkHitRatio(before, after counters) error {
	r := hitRatio(before, after)
	switch {
	case w.name == "cold-adhoc" && r > 0.05:
		return fmt.Errorf("%s is not valid: plan-cache hit ratio %.3f, want at most 0.05", w.name, r)
	case (w.name == "hot-line" || w.name == "rows-http") && r < 0.99:
		return fmt.Errorf("%s is not valid: plan-cache hit ratio %.3f, want at least 0.99", w.name, r)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun measures the per-layer metrics into res.
func tracedRun(ctx context.Context, cfg runConfig, e *env, tr *tracer, res *result, total time.Duration, setups int) error {
	m := map[string]float64{}
	share := func(s float64) time.Duration { return time.Duration(s * float64(total)) }

	// 1. The plain loop, as the untraced run drives it.
	before := e.counters(ctx)
	plain, err := runLoop(ctx, e, warmUp(cfg.seconds), share(plainShare)/3, 3, true, nil)
	if err != nil {
		return err
	}
	after := e.counters(ctx)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	if plain.firstErr != nil {
		res.Error = plain.firstErr.Error()
	}
	if err := e.w.checkHitRatio(before, after); err != nil {
		fail(res, err)
	}
	ops := float64(plain.attempted - plain.failed)
	m["plancache.hit_ratio"] = hitRatio(before, after)
	m["plancache.evictions_per_op"] = ratio(after.evictions-before.evictions, ops)
	m["stats.rescans_per_update"] = ratio(after.statsCollects-before.statsCollects, after.updates-before.updates)
	m["server.shed_share"] = ratio(after.shed-before.shed, after.queries-before.queries+after.shed-before.shed)
	m["sharded.merge_us_per_scatter"] = ratio(after.mergeNs-before.mergeNs, after.scatters-before.scatters) / 1e3
	m["sharded.merged_rows_per_scatter"] = ratio(after.rows-before.rows, after.scatters-before.scatters)
	m["wal.bytes_per_batch"] = ratio(after.walBytes-before.walBytes, after.walRecords-before.walRecords)
	m["runtime.alloc_kb_per_op"] = ratio(after.allocBytes-before.allocBytes, ops) / 1024
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.cpu-before.cpu)
	m["client.fail_share"] = ratio(float64(plain.failed), float64(plain.attempted))
	e.wireMetrics(plain, m)

	// 2. The same loop with spans.
	traced, err := runLoop(ctx, e, 0, share(tracedShare)/2, 2, false, tr)
	if err != nil {
		return err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if traced.firstErr != nil && res.Error == "" {
		res.Error = traced.firstErr.Error()
	}
	m["trace.overhead_share"] = 1 - ratio(median(traced.opsPerSecond()), median(plain.opsPerSecond()))

	// 3. Probes of the single layers, one goroutine, equal time each.
	pb := &prober{ctx: ctx, e: e, sp: tr.buf(), m: m}
	probes := []func(time.Time) error{pb.translator, pb.planner, pb.engine}
	if e.comp != nil {
		probes = append(probes, pb.shards, pb.oneShard)
	}
	if e.writes() {
		probes = append(probes, pb.updates)
	}
	slot := share(probeShare) / time.Duration(len(probes))
	for _, p := range probes {
		if err := p(time.Now().Add(slot)); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	mAfter := e.counters(ctx)
	m["engine.memo_hit_share"] = ratio(mAfter.memoHits-before.memoHits, mAfter.memoHits-before.memoHits+mAfter.memoMisses-before.memoMisses)
	if e.srv != nil {
		if t := e.srv.Tenant(e.targets[0].inst.name); t != nil && t.WAL() != nil {
			m["wal.snapshots"] = float64(t.WAL().Stats().Snapshots)
		}
	}

	// Set-up stages, from the spans setUp recorded on every repetition.
	spans := tr.all()
	var genNs, loadNs float64
	for _, s := range spans {
		switch s.Name {
		case "workloads.generate":
			genNs += float64(s.dur())
		case "shred.load":
			loadNs += float64(s.dur())
		}
	}
	tuples := 0
	for _, t := range e.targets {
		tuples += t.tuples
	}
	m["workloads.generate_ms"] = genNs / float64(setups) / 1e6
	m["shred.load_ms"] = loadNs / float64(setups) / 1e6
	m["shred.tuples"] = float64(tuples)
	m["shred.rows_per_s"] = ratio(float64(tuples), loadNs/float64(setups)/1e9)

	res.Spans = aggregateSpans(spans)
	p50 := map[string]float64{}
	for _, a := range res.Spans {
		p50[a.Name] = a.P50Us
	}
	for name, metricName := range map[string]string{
		"pathexpr.parse":              "pathexpr.parse_us",
		"pathid.build":                "pathid.build_us",
		"core.translate":              "core.translate_us",
		"translate.naive":             "translate.naive_us",
		"translate.choose":            "translate.choose_us",
		"sqlast.render":               "sqlast.render_us",
		"plancache.hit":               "plancache.hit_us",
		"planner.exec.cold":           "planner.cold_exec_us",
		"planner.exec.hot":            "planner.hot_exec_us",
		"integrity.audit_incremental": "integrity.audit_incremental_us",
	} {
		m[metricName] = p50[name]
	}
	m["integrity.audit_full_ms"] = p50["integrity.audit_full"] / 1e3
	m["stats.collect_ms"] = p50["stats.collect"] / 1e3
	if d := p50["update.durable"]; d > 0 {
		m["wal.commit_overhead_us"] = d - p50["update.volatile"]
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return err
		}
	}
	return nil
}

// wireMetrics derives the server and client figures from what the clients
// saw on the wire: round trips, the server's own elapsed_ns, answer sizes.
func (e *env) wireMetrics(lr *loopResult, m map[string]float64) {
	if e.srv == nil {
		return
	}
	var exec, front, over []float64
	for c := range lr.srv {
		if c == e.updateClass || lr.srv[c].n == 0 {
			continue
		}
		var rtt hist
		for w := range lr.lat {
			rtt.merge(&lr.lat[w][c])
		}
		exec = append(exec, lr.srv[c].quantile(0.5)/1e3)
		front = append(front, lr.front[c].quantile(0.5)/1e3)
		over = append(over, ratio(rtt.quantile(0.5), lr.srv[c].quantile(0.5)))
	}
	m["server.exec_us"] = geomean(exec)
	m["server."+e.w.front+"_front_us"] = geomean(front)
	m["server."+e.w.front+"_rtt_over_exec"] = geomean(over)
	m["server.http_resp_bytes_per_row"] = ratio(float64(lr.respBytes), float64(lr.respRows))
	m["client.http_decode_us"] = lr.decode.quantile(0.5) / 1e3
	if e.writes() {
		isUpdate := func(c int) bool { return c == e.updateClass }
		p50, _ := lr.latency(0.5, isUpdate)
		p99, _ := lr.latency(0.99, isUpdate)
		m["client.update_p50_us"] = median(p50)
		m["client.update_p99_us"] = median(p99)
		m["update.apply_us"] = lr.srv[e.updateClass].quantile(0.5) / 1e3
		m["update.stmts_per_batch"] = ratio(float64(lr.stmts), float64(lr.updates))
	}
}

// prober calls the layers' public functions on the workload's own mappings
// and queries, one call per span, until its time is up (and at least once
// per query).
type prober struct {
	ctx context.Context
	e   *env
	sp  *spanBuf
	m   map[string]float64
}

// pairs visits every (target, query) pair round-robin until the deadline,
// and every pair at least once.
func (pb *prober) pairs(deadline time.Time, f func(t *target, qi int) error) error {
	for pass := 0; ; pass++ {
		for _, t := range pb.e.targets {
			for qi := range t.inst.queries {
				if pass > 0 && !time.Now().Before(deadline) {
					return nil
				}
				if err := f(t, qi); err != nil {
					return fmt.Errorf("%s %s: %w", t.inst.name, t.inst.queries[qi], err)
				}
			}
		}
	}
}

func (pb *prober) translateOpts() core.Options {
	return core.Options{Adaptive: pb.e.writes()}
}

// translator times parse, PathId, prune+SQLGen, the baseline translation,
// the plan chooser and SQL rendering, and counts the shape of the SQL.
func (pb *prober) translator(deadline time.Time) error {
	opts := pb.translateOpts()
	ests := map[*target]*stats.Estimator{}
	for _, t := range pb.e.targets {
		var snap *stats.Stats
		var err error
		for i := 0; i < 3; i++ {
			pb.sp.timed("stats.collect", 0, 0, func() {
				snap, err = backend.CollectStats(pb.ctx, t.planner.Backend(), t.inst.schema)
			})
			if err != nil {
				return err
			}
		}
		ests[t] = stats.NewEstimator(snap)
	}
	type shape struct{ joins, naiveJoins, branches, ctes, recursive, fallback, cp float64 }
	shapes := map[string]shape{}
	err := pb.pairs(deadline, func(t *target, qi int) error {
		text := t.inst.queries[qi]
		s := t.inst.schema
		root, req := pb.sp.id(), pb.sp.t.request()
		t0 := pb.sp.t.now()
		var q *pathexpr.Path
		var g *pathid.Graph
		var tr *core.Result
		var naive *sqlast.Query
		var err error
		pb.sp.timed("pathexpr.parse", root, req, func() { q, err = pathexpr.Parse(text) })
		if err != nil {
			return err
		}
		pb.sp.timed("pathid.build", root, req, func() { g, err = pathid.Build(s, q) })
		if err != nil {
			return err
		}
		pb.sp.timed("core.translate", root, req, func() { tr, err = core.TranslateOpts(g, opts) })
		if err != nil {
			return err
		}
		pb.sp.timed("translate.naive", root, req, func() { naive, err = translate.Naive(g) })
		if err != nil {
			return err
		}
		pruned := tr.Query
		if tr.Fallback {
			pruned = nil
		}
		pb.sp.timed("translate.choose", root, req, func() { translate.ChoosePlan(naive, pruned, s, ests[t]) })
		pb.sp.timed("sqlast.render", root, req, func() { _ = tr.Query.SQL() })
		pb.sp.add(root, 0, req, "probe.translator", t0, pb.sp.t.now())
		key := t.inst.name + "\x00" + text
		if _, seen := shapes[key]; !seen {
			sh, nsh := tr.Query.Shape(), naive.Shape()
			v := shape{joins: float64(sh.Joins), naiveJoins: float64(nsh.Joins), branches: float64(sh.Branches),
				ctes: float64(sh.CTEs), cp: float64(len(g.Nodes()))}
			if sh.Recursive {
				v.recursive = 1
			}
			if tr.Fallback {
				v.fallback = 1
			}
			shapes[key] = v
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(len(shapes))
	var sum shape
	for _, v := range shapes {
		sum.joins += v.joins
		sum.naiveJoins += v.naiveJoins
		sum.branches += v.branches
		sum.ctes += v.ctes
		sum.recursive += v.recursive
		sum.fallback += v.fallback
		sum.cp += v.cp
	}
	pb.m["sqlast.joins_per_query"] = sum.joins / n
	pb.m["sqlast.naive_joins_per_query"] = sum.naiveJoins / n
	pb.m["sqlast.branches_per_query"] = sum.branches / n
	pb.m["sqlast.ctes_per_query"] = sum.ctes / n
	pb.m["sqlast.recursive_share"] = sum.recursive / n
	pb.m["core.fallback_share"] = sum.fallback / n
	pb.m["pathid.cp_nodes"] = sum.cp / n
	return nil
}

// planner times Planner.Exec on a cold and on a hot plan-cache key and
// Planner.Plan on a hot one, and replays the stages of the cold call to see
// how much of it they explain.
func (pb *prober) planner(deadline time.Time) error {
	opts := pb.translateOpts()
	var unattributed []float64
	err := pb.pairs(deadline, func(t *target, qi int) error {
		text := t.inst.queries[qi]
		root, req := pb.sp.id(), pb.sp.t.request()
		t0 := pb.sp.t.now()
		var err error
		t.planner.InvalidatePlans()
		cold := pb.sp.timed("planner.exec.cold", root, req, func() { _, err = t.planner.Exec(pb.ctx, text) })
		if err != nil {
			return err
		}
		pb.sp.timed("planner.exec.hot", root, req, func() { _, err = t.planner.Exec(pb.ctx, text) })
		if err != nil {
			return err
		}
		if _, err = t.planner.Plan(text); err != nil {
			return err
		}
		pb.sp.timed("plancache.hit", root, req, func() { _, err = t.planner.Plan(text) })
		if err != nil {
			return err
		}
		// The stages of the cold call, one by one.
		var stages int64
		var tr *core.Result
		plan := (*sqlast.Query)(nil)
		stages += pb.sp.timed("replay.translate", root, req, func() {
			var q *pathexpr.Path
			var g *pathid.Graph
			if q, err = pathexpr.Parse(text); err != nil {
				return
			}
			if g, err = pathid.Build(t.inst.schema, q); err != nil {
				return
			}
			if tr, err = core.TranslateOpts(g, opts); err != nil {
				return
			}
			plan = tr.Query
			if opts.Adaptive && tr.Baseline != nil {
				// The adaptive planner also costs both candidates.
				var snap *stats.Stats
				if snap, err = t.planner.StatsSnapshot(pb.ctx); err != nil {
					return
				}
				plan = translate.ChoosePlan(tr.Baseline, tr.Query, t.inst.schema, stats.NewEstimator(snap)).Query
			}
		})
		if err != nil {
			return err
		}
		stages += pb.sp.timed("replay.execute", root, req, func() { _, err = t.planner.Backend().Execute(pb.ctx, plan) })
		if err != nil {
			return err
		}
		pb.sp.add(root, 0, req, "probe.planner", t0, pb.sp.t.now())
		unattributed = append(unattributed, 1-float64(stages)/float64(cold))
		return nil
	})
	pb.m["planner.unattributed_share"] = median(unattributed)
	return err
}

// engine times the execution of the pruned and of the baseline SQL on the
// workload's backend; the ratio of their medians, per query, is the paper's
// headline.
func (pb *prober) engine(deadline time.Time) error {
	type plans struct{ pruned, naive *sqlast.Query }
	cache := map[string]plans{}
	prunedNs := map[string][]float64{}
	naiveNs := map[string][]float64{}
	var rows []float64
	name := "engine.exec"
	if pb.e.comp != nil {
		name = "sharded.exec"
	}
	err := pb.pairs(deadline, func(t *target, qi int) error {
		text := t.inst.queries[qi]
		key := t.inst.name + "\x00" + text
		pl, ok := cache[key]
		if !ok {
			q, err := pathexpr.Parse(text)
			if err != nil {
				return err
			}
			g, err := pathid.Build(t.inst.schema, q)
			if err != nil {
				return err
			}
			tr, err := core.Translate(g)
			if err != nil {
				return err
			}
			if pl.naive, err = translate.Naive(g); err != nil {
				return err
			}
			pl.pruned = tr.Query
			cache[key] = pl
		}
		b := t.planner.Backend()
		var err error
		var res *xmlsql.Result
		d := pb.sp.timed(name, 0, 0, func() { res, err = b.Execute(pb.ctx, pl.pruned) })
		if err != nil {
			return err
		}
		prunedNs[key] = append(prunedNs[key], float64(d))
		rows = append(rows, float64(res.Len()))
		d = pb.sp.timed(name+".naive", 0, 0, func() { _, err = b.Execute(pb.ctx, pl.naive) })
		if err != nil {
			return err
		}
		naiveNs[key] = append(naiveNs[key], float64(d))
		return nil
	})
	if err != nil {
		return err
	}
	var speedups, p, n []float64
	for key, ps := range prunedNs {
		pm, nm := median(ps), median(naiveNs[key])
		p = append(p, pm/1e3)
		n = append(n, nm/1e3)
		speedups = append(speedups, ratio(nm, pm))
	}
	if pb.e.comp != nil {
		pb.m["sharded.exec_us"] = geomean(p)
	} else {
		pb.m["engine.exec_us"] = geomean(p)
	}
	pb.m["engine.naive_exec_us"] = geomean(n)
	pb.m["engine.pruned_speedup"] = geomean(speedups)
	pb.m["engine.rows_per_op"] = mean(rows)
	return nil
}

// shards executes every query on each shard by itself: the slowest shard is
// what a scatter waits for.
func (pb *prober) shards(deadline time.Time) error {
	var maxUs, allUs []float64
	err := pb.pairs(deadline, func(t *target, qi int) error {
		tr, err := t.planner.Plan(t.inst.queries[qi])
		if err != nil {
			return err
		}
		root, req := pb.sp.id(), pb.sp.t.request()
		t0 := pb.sp.t.now()
		var slowest int64
		for _, sh := range pb.e.comp.Shards() {
			var err error
			d := pb.sp.timed("engine.exec", root, req, func() { _, err = sh.Execute(pb.ctx, tr.Query) })
			if err != nil {
				return err
			}
			allUs = append(allUs, float64(d)/1e3)
			if d > slowest {
				slowest = d
			}
		}
		pb.sp.add(root, 0, req, "probe.shards", t0, pb.sp.t.now())
		maxUs = append(maxUs, float64(slowest)/1e3)
		return nil
	})
	if err != nil {
		return err
	}
	pb.m["sharded.shard_exec_us_max"] = median(maxUs)
	pb.m["engine.exec_us"] = median(allUs)
	mt, err := pb.e.comp.Metrics(pb.ctx)
	if err != nil {
		return err
	}
	var total, largest float64
	for _, r := range mt.RowsPerShard {
		total += float64(r)
		if float64(r) > largest {
			largest = float64(r)
		}
	}
	pb.m["sharded.max_row_share"] = ratio(largest, total)
	return nil
}

// oneShard loads the same documents into a one-shard composite and into a
// bare in-memory backend: what the composite costs when it has nothing to
// scatter.
func (pb *prober) oneShard(deadline time.Time) error {
	inst := pb.e.targets[0].inst
	comp, err := xmlsql.NewShardedMemBackend(1, xmlsql.ShardedOptions{})
	if err != nil {
		return err
	}
	defer comp.Close()
	single := backend.NewMem()
	for _, b := range []xmlsql.Backend{comp, single} {
		if err := b.EnsureSchema(inst.schema); err != nil {
			return err
		}
		if _, err := b.Load(inst.schema, inst.docs...); err != nil {
			return err
		}
	}
	compNs := map[int][]float64{}
	singleNs := map[int][]float64{}
	err = pb.pairs(deadline, func(t *target, qi int) error {
		tr, err := t.planner.Plan(t.inst.queries[qi])
		if err != nil {
			return err
		}
		d := pb.sp.timed("sharded.exec.n1", 0, 0, func() { _, err = comp.Execute(pb.ctx, tr.Query) })
		if err != nil {
			return err
		}
		compNs[qi] = append(compNs[qi], float64(d))
		d = pb.sp.timed("engine.exec.single", 0, 0, func() { _, err = single.Execute(pb.ctx, tr.Query) })
		if err != nil {
			return err
		}
		singleNs[qi] = append(singleNs[qi], float64(d))
		return nil
	})
	if err != nil {
		return err
	}
	var ratios []float64
	for qi, c := range compNs {
		ratios = append(ratios, ratio(median(c), median(singleNs[qi])))
	}
	pb.m["sharded.n1_over_single"] = geomean(ratios)
	return nil
}

// updates applies insert/delete pairs through the tenant's planner in this
// process (where the batch's footprint is visible), replays the incremental
// audit on that footprint, runs full audits, and applies the same batches
// to a volatile twin of the tenant: durable minus volatile is what the log
// costs.
func (pb *prober) updates(deadline time.Time) error {
	t := pb.e.targets[0]
	mem, ok := t.planner.Backend().(*backend.Mem)
	if !ok {
		return fmt.Errorf("update probe wants a mem backend")
	}
	twinMem := backend.NewMem()
	if err := twinMem.EnsureSchema(t.inst.schema); err != nil {
		return err
	}
	if _, err := twinMem.Load(t.inst.schema, t.inst.docs...); err != nil {
		return err
	}
	twin := xmlsql.NewPlannerWith(t.inst.schema, xmlsql.PlannerConfig{
		Backend: twinMem, Translate: xmlsql.TranslateOptions{Adaptive: true}})
	targets := pb.e.in.updateTargets
	var afterWrite, missed float64
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		value := fmt.Sprintf("probe-%d", k)
		batches := []xmlsql.UpdateBatch{
			{Muts: []xmlsql.UpdateMutation{{Op: xmlsql.UpdateInsert,
				Path: "//Item[name='" + targets[k%len(targets)] + "']",
				XML:  "<InCategory><Category>" + value + "</Category></InCategory>"}}},
			{Muts: []xmlsql.UpdateMutation{{Op: xmlsql.UpdateDelete,
				Path: "//Item/InCategory[Category='" + value + "']"}}},
		}
		for _, b := range batches {
			var res *xmlsql.UpdateResult
			var err error
			pb.sp.timed("update.durable", 0, 0, func() { res, err = t.planner.Update(pb.ctx, b) })
			if err != nil {
				return err
			}
			pb.sp.timed("integrity.audit_incremental", 0, 0, func() {
				_, err = integrity.AuditIncremental(pb.ctx, integrity.StoreProbe(mem.Store()), t.inst.schema, res.Touched)
			})
			if err != nil {
				return err
			}
			// Which of the hot reads find their plan gone after the write?
			for _, q := range t.inst.queries {
				m0 := t.planner.Stats().Misses
				if _, err := t.planner.Exec(pb.ctx, q); err != nil {
					return err
				}
				afterWrite++
				if t.planner.Stats().Misses > m0 {
					missed++
				}
			}
			pb.sp.timed("update.volatile", 0, 0, func() { _, err = twin.Update(pb.ctx, b) })
			if err != nil {
				return err
			}
		}
		if k < 3 {
			var rep *xmlsql.IntegrityReport
			var err error
			pb.sp.timed("integrity.audit_full", 0, 0, func() { rep, err = t.planner.Audit(pb.ctx) })
			if err != nil {
				return err
			}
			if !rep.Clean() {
				return fmt.Errorf("full audit: %d violations", rep.Total)
			}
		}
	}
	pb.m["plancache.miss_after_write_share"] = ratio(missed, afterWrite)
	return nil
}
