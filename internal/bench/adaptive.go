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
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
)

// AdaptiveComparison measures the plan rule (translate.ChoosePlan) against
// every fixed knob setting on one case. The rule's plan is the exact
// configuration it picked: the pruned translation whenever it exists,
// otherwise the baseline.
//
// Work is exact and gated: the served plan may not scan, examine or
// materialize more rows than any fixed configuration, the baseline
// included. Wall-clock times come from
// AdaptiveRounds paired, interleaved rounds and are gated only on
// quartiles, so a difference the per-round spread cannot resolve never
// fails a run.
type AdaptiveComparison struct {
	// Suite is "headline": every case is an E1–E8 naive-vs-pruned case.
	Suite    string `json:"suite"`
	Workload string `json:"workload"`
	Query    string `json:"query"`

	// KnobKey is the rule's plan-level knob vector.
	KnobKey    string `json:"knob_key"`
	ActualRows int    `json:"actual_rows"`

	// ServedWork is the rows scanned + examined + materialized by the
	// served plan; FixedWork is the same per fixed configuration, where
	// "baseline" is the naive plan.
	ServedWork int            `json:"served_work"`
	FixedWork  map[string]int `json:"fixed_work"`
	// ServedAllocs and BaselineAllocs are heap allocations per execution:
	// reported, not gated (bytes can rise where rows fall).
	ServedAllocs   float64 `json:"served_allocs"`
	BaselineAllocs float64 `json:"baseline_allocs"`

	// FixedNs maps each fixed configuration to the median over the rounds
	// of its fastest execution per round; AdaptiveNs is FixedNs of the
	// configuration the rule picked.
	FixedNs    map[string]float64 `json:"fixed_ns,omitempty"`
	AdaptiveNs float64            `json:"adaptive_ns,omitempty"`

	// Speedup is the per-round baseline ns over served ns as lower
	// quartile, median and upper quartile.
	Speedup [3]float64 `json:"speedup_q1_med_q3"`

	Verified bool `json:"verified"`
}

// AdaptiveRounds is how many paired, interleaved rounds time each case. At
// true parity a quartile lands on the wrong side of 1.0 with probability
// about 0.1% (30 of 40 rounds one way, binomial).
const AdaptiveRounds = 40

// adaptiveRoundTime is one configuration's measurement window per round.
const adaptiveRoundTime = 5 * time.Millisecond

// adaptiveCase is one headline case, ready to run: its instance,
// the rule's decision, and the fixed configurations, one of which is the
// plan the rule serves.
type adaptiveCase struct {
	workload, query string
	store           *relational.Store
	naive           *sqlast.Query
	dec             *translate.Decision
	grid            []gridItem
	served          string
}

// RunAdaptive measures the plan rule on the headline suite: work and
// allocations once, then AdaptiveRounds timed rounds per case.
func RunAdaptive(sc Scale) ([]*AdaptiveComparison, error) { return runAdaptive(sc, true) }

// AdaptiveWork runs every headline case once per plan and reports work and
// allocations, untimed.
func AdaptiveWork(sc Scale) ([]*AdaptiveComparison, error) { return runAdaptive(sc, false) }

func runAdaptive(sc Scale, timed bool) ([]*AdaptiveComparison, error) {
	cases := Suite(sc)
	out := make([]*AdaptiveComparison, 0, len(cases))
	for _, in := range cases {
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

// newAdaptiveCase shreds one case's document and plans its query. The fixed
// configurations are the baseline and the pruned translation where it
// exists.
func newAdaptiveCase(in Case) (*adaptiveCase, error) {
	store := relational.NewStore()
	if _, err := shred.ShredAll(in.Schema, store, in.ShredOpts, in.Doc); err != nil {
		return nil, fmt.Errorf("adaptive %s %s: shred: %w", in.Workload, in.Query, err)
	}
	q, err := pathexpr.Parse(in.Query)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(in.Schema, q)
	if err != nil {
		return nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, err
	}
	ac := &adaptiveCase{workload: in.Workload, query: in.Query, store: store, naive: naive,
		grid: []gridItem{{name: "baseline", q: naive}}, served: "baseline"}
	var pruned *sqlast.Query
	if pr, err := core.Translate(g); err == nil && !pr.Fallback {
		pruned = pr.Query
		ac.grid = append(ac.grid, gridItem{name: "pruned", q: pruned})
	}
	ac.dec = translate.ChoosePlan(naive, pruned, in.Schema, nil)
	if ac.dec.UsePruned {
		ac.served = "pruned"
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
		Suite:          "headline",
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
// speedup.
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
	}
	c.AdaptiveNs = c.FixedNs[ac.served]
	speedup := make([]float64, AdaptiveRounds)
	for r := range speedup {
		speedup[r] = ns["baseline"][r] / ns[ac.served][r]
	}
	c.Speedup = quartiles(speedup)
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
// exact work bound, then the wall-clock check, which fails only on a
// slowdown the rounds resolve: a case whose upper-quartile speedup is below
// 1.0. It returns one error per violated gate.
func AdaptiveGate(cmps []*AdaptiveComparison) []error {
	errs := AdaptiveWorkGate(cmps)
	for _, c := range cmps {
		if c.Speedup[2] < 1.0 {
			errs = append(errs, fmt.Errorf("adaptive %s %s %s: upper-quartile speedup %.3f < 1.0 (chose %s)",
				c.Suite, c.Workload, c.Query, c.Speedup[2], c.KnobKey))
		}
	}
	return errs
}

// FormatAdaptive renders the adaptive comparisons as a fixed-width table:
// exact work and allocations per execution (served / baseline), then the
// timed speedup as median [lower quartile, upper quartile].
func FormatAdaptive(cmps []*AdaptiveComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan rule: pruned unless it fell back, baseline otherwise, vs fixed configurations (%d rounds)\n", AdaptiveRounds)
	fmt.Fprintf(&b, "%-10s %-18s %-28s %-26s %15s %13s %10s %22s %3s\n",
		"suite", "workload", "query", "knobs", "work", "allocs", "adapt/op", "speedup", "ok")
	b.WriteString(strings.Repeat("-", 157))
	b.WriteString("\n")
	for _, c := range cmps {
		ok := "yes"
		if !c.Verified {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-10s %-18s %-28s %-26s %15s %13s %10s %22s %3s\n",
			c.Suite, c.Workload, truncate(c.Query, 28), truncate(c.KnobKey, 26),
			fmt.Sprintf("%d/%d", c.ServedWork, c.FixedWork["baseline"]),
			fmt.Sprintf("%.0f/%.0f", c.ServedAllocs, c.BaselineAllocs),
			fmtNs(c.AdaptiveNs), fmtQuartiles(c.Speedup), ok)
	}
	return b.String()
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.2fx [%.2f,%.2f]", q[1], q[0], q[2])
}
