package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// AdaptiveComparison measures the plan rule (translate.ChoosePlan) against
// every fixed knob setting on one case. The rule's plan is the exact
// configuration it picked: the pruned translation whenever it exists,
// otherwise the baseline with the shared-prefix rewrite.
//
// Work is exact and gated: the served plan may not scan, examine or
// materialize more rows than any fixed configuration, the baseline
// included. Wall-clock times come from
// AdaptiveRounds paired, interleaved rounds and are gated only on
// quartiles, so a difference the per-round spread cannot resolve never
// fails a run.
type AdaptiveComparison struct {
	// Suite is "headline" (the E1–E8 naive-vs-pruned cases) or
	// "sharedwork" (the branch-heavy factoring cases).
	Suite    string `json:"suite"`
	Workload string `json:"workload"`
	Query    string `json:"query"`

	// KnobKey is the rule's plan-level knob vector.
	KnobKey    string `json:"knob_key"`
	ActualRows int    `json:"actual_rows"`

	// ServedWork is the rows scanned + examined + materialized by the
	// served plan; FixedWork is the same per fixed configuration, where
	// "baseline" is the naive plan (the unfactored union on shared-work
	// cases).
	ServedWork int            `json:"served_work"`
	FixedWork  map[string]int `json:"fixed_work"`
	// ServedAllocs and BaselineAllocs are heap allocations per execution:
	// reported, not gated (bytes can rise where rows fall).
	ServedAllocs   float64 `json:"served_allocs"`
	BaselineAllocs float64 `json:"baseline_allocs"`

	// FixedNs maps each fixed configuration to the median over the rounds
	// of its fastest execution per round; AdaptiveNs is FixedNs of the
	// configuration the rule picked.
	FixedNs     map[string]float64 `json:"fixed_ns,omitempty"`
	BestFixed   string             `json:"best_fixed,omitempty"`
	BestFixedNs float64            `json:"best_fixed_ns,omitempty"`
	AdaptiveNs  float64            `json:"adaptive_ns,omitempty"`

	// Speedup is the per-round baseline ns over served ns, and VsBest the
	// per-round served ns over the best fixed configuration's ns, each as
	// lower quartile, median and upper quartile.
	Speedup [3]float64 `json:"speedup_q1_med_q3"`
	VsBest  [3]float64 `json:"vs_best_q1_med_q3"`

	Verified bool `json:"verified"`
}

// AdaptiveRounds is how many paired, interleaved rounds time each case. At
// true parity a quartile lands on the wrong side of 1.0 with probability
// about 0.1% (30 of 40 rounds one way, binomial).
const AdaptiveRounds = 40

// adaptiveRoundTime is one configuration's measurement window per round.
const adaptiveRoundTime = 5 * time.Millisecond

// adaptiveCase is one case of either suite, ready to run: its instance,
// the rule's decision, and the fixed configurations, one of which is the
// plan the rule serves.
type adaptiveCase struct {
	suite, workload, query string
	store                  *relational.Store
	naive                  *sqlast.Query
	dec                    *translate.Decision
	grid                   []gridItem
	served                 string
}

// RunAdaptive measures the plan rule on the headline suite and the
// shared-work suite: work and allocations once, then AdaptiveRounds timed
// rounds per case.
func RunAdaptive(sc Scale) ([]*AdaptiveComparison, error) { return runAdaptive(sc, true) }

// AdaptiveWork runs every case of both suites once per plan and reports
// work and allocations, untimed.
func AdaptiveWork(sc Scale) ([]*AdaptiveComparison, error) { return runAdaptive(sc, false) }

func runAdaptive(sc Scale, timed bool) ([]*AdaptiveComparison, error) {
	var inputs []adaptiveInput
	for _, c := range Suite(sc) {
		inputs = append(inputs, adaptiveInput{suite: "headline", workload: c.Workload, query: c.Query,
			schema: c.Schema, doc: c.Doc, opts: c.ShredOpts})
	}
	sw, err := sharedWorkSuite(sc)
	if err != nil {
		return nil, err
	}
	out := make([]*AdaptiveComparison, 0, len(inputs)+len(sw))
	for _, in := range append(inputs, sw...) {
		ac, err := newAdaptiveCase(in)
		if err != nil {
			return nil, err
		}
		c, err := ac.compare()
		if err != nil {
			return nil, err
		}
		if timed {
			c.time(ac)
		}
		out = append(out, c)
	}
	return out, nil
}

// adaptiveInput is one case of either suite before it is shredded.
type adaptiveInput struct {
	suite, workload, query string
	schema                 *schema.Schema
	doc                    *xmltree.Document
	opts                   shred.Options
}

// sharedWorkSuite builds the branch-heavy cases the factoring rewrite
// targets: the naive XMark Q1 union (6 literal-partitioned branches), the S2
// DAG over Edge storage (shared-subtree CTE whose body is a 3-branch union),
// the schema-oblivious Edge mapping's Q8 (6 self-join chains), and the
// auctions Edge mapping's //ItemRef (structurally distinct suffixes — the
// prefix-CTE path rather than the IN collapse).
func sharedWorkSuite(sc Scale) ([]adaptiveInput, error) {
	xm := workloads.XMark()
	xmDoc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	s2Edge, err := shred.EdgeSchemaFor(workloads.S2())
	if err != nil {
		return nil, err
	}
	s2Doc := workloads.GenerateS2(sc.S2Groups, 1)
	xfEdge, err := shred.EdgeSchemaFor(workloads.XMarkFull())
	if err != nil {
		return nil, err
	}
	xfDoc := workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent / 2, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	xaEdge, err := shred.EdgeSchemaFor(workloads.XMarkAuctions())
	if err != nil {
		return nil, err
	}
	xaDoc := workloads.GenerateXMarkAuctions(workloads.XMarkAuctionsConfig{
		ItemsPerContinent: sc.ItemsPerContinent / 2,
		People:            sc.AdsPerSection,
		OpenAuctions:      sc.AdsPerSection,
		BiddersPerAuction: 3,
		ClosedAuctions:    sc.AdsPerSection / 2,
		Seed:              1,
	})
	return []adaptiveInput{
		{suite: "sharedwork", workload: "xmark", query: workloads.QueryQ1, schema: xm, doc: xmDoc},
		{suite: "sharedwork", workload: "s2-edge", query: "//s/t1", schema: s2Edge, doc: s2Doc},
		{suite: "sharedwork", workload: "xmarkfull-edge", query: workloads.QueryQ8, schema: xfEdge, doc: xfDoc},
		{suite: "sharedwork", workload: "xmarkauctions-edge", query: "//ItemRef", schema: xaEdge, doc: xaDoc},
	}, nil
}

// newAdaptiveCase shreds one case's document and plans its query. The fixed
// configurations are the baseline, the pruned translation where it exists
// (headline cases only: the shared-work suite studies the naive unions), and
// the baseline with the shared-prefix rewrite where the rewrite applies.
func newAdaptiveCase(in adaptiveInput) (*adaptiveCase, error) {
	store := relational.NewStore()
	if _, err := shred.ShredAll(in.schema, store, in.opts, in.doc); err != nil {
		return nil, fmt.Errorf("adaptive %s %s: shred: %w", in.workload, in.query, err)
	}
	q, err := pathexpr.Parse(in.query)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(in.schema, q)
	if err != nil {
		return nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, err
	}
	ac := &adaptiveCase{suite: in.suite, workload: in.workload, query: in.query, store: store, naive: naive,
		grid: []gridItem{{name: "baseline", q: naive}}, served: "baseline"}
	var pruned *sqlast.Query
	if in.suite == "headline" {
		if pr, err := core.Translate(g); err == nil && !pr.Fallback {
			pruned = pr.Query
			ac.grid = append(ac.grid, gridItem{name: "pruned", q: pruned})
		}
	}
	if f, ok := translate.FactorSharedPrefixes(naive, in.schema); ok {
		ac.grid = append(ac.grid, gridItem{name: "rewritten", q: f})
	}
	ac.dec = translate.ChoosePlan(naive, pruned, in.schema, nil)
	switch {
	case ac.dec.UsePruned:
		ac.served = "pruned"
	case ac.dec.Factored:
		ac.served = "rewritten"
	}
	return ac, nil
}

// gridItem is one fixed configuration to measure: a plan.
type gridItem struct {
	name string
	q    *sqlast.Query
}

// compare executes the served plan and every fixed configuration once,
// verifying that all return one multiset and recording their work, and the
// allocations of the served plan and the baseline.
func (ac *adaptiveCase) compare() (*AdaptiveComparison, error) {
	ctx := context.Background()
	adRes, err := engine.Execute(ctx, ac.store, ac.dec.Query, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("adaptive %s %s: chosen: %w", ac.workload, ac.query, err)
	}
	c := &AdaptiveComparison{
		Suite:          ac.suite,
		Workload:       ac.workload,
		Query:          ac.query,
		KnobKey:        ac.dec.KnobKey(),
		ActualRows:     adRes.Len(),
		ServedWork:     adRes.Work.Total(),
		FixedWork:      make(map[string]int, len(ac.grid)),
		ServedAllocs:   allocsPerRun(ac.store, ac.dec.Query),
		BaselineAllocs: allocsPerRun(ac.store, ac.naive),
		Verified:       true,
	}
	for _, it := range ac.grid {
		res, err := engine.Execute(ctx, ac.store, it.q, engine.Options{})
		if err != nil {
			return nil, fmt.Errorf("adaptive %s %s: %s: %w", ac.workload, ac.query, it.name, err)
		}
		c.FixedWork[it.name] = res.Work.Total()
		c.Verified = c.Verified && res.MultisetEqual(adRes)
	}
	return c, nil
}

// allocsPerRun is the mean heap allocation count of one execution.
func allocsPerRun(store *relational.Store, q *sqlast.Query) float64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := engine.Execute(context.Background(), store, q, engine.Options{}); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// time measures every fixed configuration in AdaptiveRounds interleaved
// rounds, reversing the order every other round so drift across the run
// hits all of them alike, and collecting before each window so no
// configuration pays for another's garbage. Each round yields one paired
// ratio per gate.
func (c *AdaptiveComparison) time(ac *adaptiveCase) {
	grid := ac.grid
	ns := make(map[string][]float64, len(grid))
	for r := 0; r < AdaptiveRounds; r++ {
		for i := range grid {
			it := grid[i]
			if r%2 == 1 {
				it = grid[len(grid)-1-i]
			}
			runtime.GC()
			ns[it.name] = append(ns[it.name], fastestRun(ac.store, it.q, adaptiveRoundTime))
		}
	}
	c.FixedNs = make(map[string]float64, len(grid))
	for name, xs := range ns {
		c.FixedNs[name] = quartiles(xs)[1]
		if c.BestFixed == "" || c.FixedNs[name] < c.BestFixedNs || (c.FixedNs[name] == c.BestFixedNs && name < c.BestFixed) {
			c.BestFixed, c.BestFixedNs = name, c.FixedNs[name]
		}
	}
	c.AdaptiveNs = c.FixedNs[ac.served]
	speedup := make([]float64, AdaptiveRounds)
	vsBest := make([]float64, AdaptiveRounds)
	for r := range speedup {
		served := ns[ac.served][r]
		speedup[r] = ns["baseline"][r] / served
		vsBest[r] = served / ns[c.BestFixed][r]
	}
	c.Speedup, c.VsBest = quartiles(speedup), quartiles(vsBest)
}

// fastestRun executes q repeatedly for about d and returns the fastest
// execution's ns: a window's minimum, unlike its mean, ignores the
// executions a descheduling or a collection happened to land on.
func fastestRun(store *relational.Store, q *sqlast.Query, d time.Duration) float64 {
	best := time.Duration(-1)
	for start := time.Now(); time.Since(start) < d; {
		t := time.Now()
		if _, err := engine.Execute(context.Background(), store, q, engine.Options{}); err != nil {
			return 0
		}
		if el := time.Since(t); best < 0 || el < best {
			best = el
		}
	}
	return float64(best.Nanoseconds())
}

// quartiles returns the lower quartile, median and upper quartile of xs.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// AdaptiveWorkGate checks the exact bound: on every case the served plan
// does no more work than any fixed configuration, the baseline included. It
// returns one error per violation.
func AdaptiveWorkGate(cmps []*AdaptiveComparison) []error {
	var errs []error
	for _, c := range cmps {
		if !c.Verified {
			errs = append(errs, fmt.Errorf("adaptive %s %s %s: verification failed", c.Suite, c.Workload, c.Query))
		}
		for name, w := range c.FixedWork {
			if c.ServedWork > w {
				errs = append(errs, fmt.Errorf("adaptive %s %s %s: served plan (%s) works %d rows > %s's %d",
					c.Suite, c.Workload, c.Query, c.KnobKey, c.ServedWork, name, w))
			}
		}
	}
	return errs
}

// AdaptiveGate checks the acceptance gates over a timed run of the rule: the
// exact work bound, then the wall-clock checks, which fail only on a
// slowdown the rounds resolve — a headline case whose upper-quartile speedup
// is below 1.0, or a shared-work case whose lower-quartile served/best ratio
// exceeds maxVsBest (e.g. 1.1). It returns one error per violated gate.
func AdaptiveGate(cmps []*AdaptiveComparison, maxVsBest float64) []error {
	errs := AdaptiveWorkGate(cmps)
	for _, c := range cmps {
		switch c.Suite {
		case "headline":
			if c.Speedup[2] < 1.0 {
				errs = append(errs, fmt.Errorf("adaptive headline %s %s: upper-quartile speedup %.3f < 1.0 (chose %s)",
					c.Workload, c.Query, c.Speedup[2], c.KnobKey))
			}
		case "sharedwork":
			if c.VsBest[0] > maxVsBest {
				errs = append(errs, fmt.Errorf("adaptive sharedwork %s %s: lower-quartile %.3fx the best fixed configuration %s (> %.2fx)",
					c.Workload, c.Query, c.VsBest[0], c.BestFixed, maxVsBest))
			}
		}
	}
	return errs
}

// FormatAdaptive renders the adaptive comparisons as a fixed-width table:
// exact work and allocations per execution (served / baseline), then the
// timed ratios as median [lower quartile, upper quartile].
func FormatAdaptive(cmps []*AdaptiveComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan rule: pruned unless it fell back, factored baseline otherwise, vs fixed configurations (%d rounds)\n", AdaptiveRounds)
	fmt.Fprintf(&b, "%-10s %-18s %-28s %-26s %15s %13s %10s %22s %22s %3s\n",
		"suite", "workload", "query", "knobs", "work", "allocs", "adapt/op", "speedup", "vsbest", "ok")
	b.WriteString(strings.Repeat("-", 180))
	b.WriteString("\n")
	for _, c := range cmps {
		ok := "yes"
		if !c.Verified {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-10s %-18s %-28s %-26s %15s %13s %10s %22s %22s %3s\n",
			c.Suite, c.Workload, truncate(c.Query, 28), truncate(c.KnobKey, 26),
			fmt.Sprintf("%d/%d", c.ServedWork, c.FixedWork["baseline"]),
			fmt.Sprintf("%.0f/%.0f", c.ServedAllocs, c.BaselineAllocs),
			fmtNs(c.AdaptiveNs), fmtQuartiles(c.Speedup), fmtQuartiles(c.VsBest), ok)
	}
	return b.String()
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.2fx [%.2f,%.2f]", q[1], q[0], q[2])
}
