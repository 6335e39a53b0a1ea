package bench

import (
	"context"
	"fmt"
	"strings"

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
// every fixed knob setting on one case. The adaptive time is the measured
// time of the exact configuration the rule picked: the pruned translation
// whenever it exists, otherwise the baseline with the shared-prefix rewrite.
type AdaptiveComparison struct {
	// Suite is "headline" (the E1–E8 naive-vs-pruned cases, gated on
	// speedup >= 1.0) or "sharedwork" (the branch-heavy factoring cases,
	// gated on staying within 10% of the best fixed configuration).
	Suite    string `json:"suite"`
	Workload string `json:"workload"`
	Query    string `json:"query"`

	// KnobKey is the rule's plan-level knob vector.
	KnobKey    string `json:"knob_key"`
	ActualRows int    `json:"actual_rows"`

	// FixedNs maps each fixed configuration to its measured ns/op;
	// AdaptiveNs is FixedNs of the configuration the rule picked.
	FixedNs     map[string]float64 `json:"fixed_ns"`
	BestFixed   string             `json:"best_fixed"`
	BestFixedNs float64            `json:"best_fixed_ns"`
	AdaptiveNs  float64            `json:"adaptive_ns"`

	// SpeedupVsBaseline is baseline-config ns over adaptive ns (>= 1.0 is
	// the headline gate); VsBestFixed is adaptive ns over the best fixed
	// configuration's ns (<= 1.1 is the shared-work gate).
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
	VsBestFixed       float64 `json:"vs_best_fixed"`

	Verified bool `json:"verified"`

	// baselineKey names the fixed configuration SpeedupVsBaseline divides
	// by: "baseline" for headline cases, "unfactored" for shared-work ones.
	baselineKey string
}

// RunAdaptive measures the plan rule on the headline suite and the
// shared-work suite.
func RunAdaptive(sc Scale) ([]*AdaptiveComparison, error) {
	var out []*AdaptiveComparison
	for _, c := range Suite(sc) {
		cmp, err := runAdaptiveHeadline(c)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	swCases, err := sharedWorkSuite(sc)
	if err != nil {
		return nil, err
	}
	for _, c := range swCases {
		cmp, err := runAdaptiveShared(c)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}

// runAdaptiveHeadline pits the rule against the fixed naive and pruned plans
// of one E1–E8 case.
func runAdaptiveHeadline(c Case) (*AdaptiveComparison, error) {
	store := relational.NewStore()
	if _, err := shred.ShredAll(c.Schema, store, c.ShredOpts, c.Doc); err != nil {
		return nil, fmt.Errorf("adaptive %s %s: shred: %w", c.Workload, c.Query, err)
	}
	q, err := pathexpr.Parse(c.Query)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(c.Schema, q)
	if err != nil {
		return nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, err
	}
	var pruned *sqlast.Query
	if pr, err := core.Translate(g); err == nil && !pr.Fallback {
		pruned = pr.Query
	}
	dec := translate.ChoosePlan(naive, pruned, c.Schema, nil)

	cmp, err := adaptiveMeasure("headline", c.Workload, c.Query, store, naive, dec)
	if err != nil {
		return nil, err
	}
	grid := []gridItem{{name: "baseline", q: naive}}
	cmp.baselineKey = "baseline"
	if pruned != nil {
		grid = append(grid, gridItem{name: "pruned", q: pruned})
	}
	if dec.Factored {
		// The rewritten plan is its own fixed configuration; measure it once
		// and charge the adaptive run that same number.
		grid = append(grid, gridItem{name: "rewritten", q: dec.Query})
	}
	cmp.FixedNs = measureGrid(store, grid)
	switch {
	case dec.Factored:
		cmp.AdaptiveNs = cmp.FixedNs["rewritten"]
	case dec.UsePruned:
		cmp.AdaptiveNs = cmp.FixedNs["pruned"]
	default:
		cmp.AdaptiveNs = cmp.FixedNs["baseline"]
	}
	cmp.finish()
	return cmp, nil
}

type sharedWorkCase struct {
	workload string
	query    string
	schema   *schema.Schema
	doc      *xmltree.Document
}

// sharedWorkSuite builds the branch-heavy cases the factoring rewrite
// targets: the naive XMark Q1 union (6 literal-partitioned branches), the S2
// DAG over Edge storage (shared-subtree CTE whose body is a 3-branch union),
// the schema-oblivious Edge mapping's Q8 (6 self-join chains), and the
// auctions Edge mapping's //ItemRef (structurally distinct suffixes — the
// prefix-CTE path rather than the IN collapse).
func sharedWorkSuite(sc Scale) ([]sharedWorkCase, error) {
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
	return []sharedWorkCase{
		{workload: "xmark", query: workloads.QueryQ1, schema: xm, doc: xmDoc},
		{workload: "s2-edge", query: "//s/t1", schema: s2Edge, doc: s2Doc},
		{workload: "xmarkfull-edge", query: workloads.QueryQ8, schema: xfEdge, doc: xfDoc},
		{workload: "xmarkauctions-edge", query: "//ItemRef", schema: xaEdge, doc: xaDoc},
	}, nil
}

// runAdaptiveShared pits the rule against the unfactored naive union and the
// rewritten plan on one branch-heavy shared-work case.
func runAdaptiveShared(c sharedWorkCase) (*AdaptiveComparison, error) {
	store := relational.NewStore()
	if _, err := shred.ShredAll(c.schema, store, shred.Options{}, c.doc); err != nil {
		return nil, fmt.Errorf("adaptive %s %s: shred: %w", c.workload, c.query, err)
	}
	q, err := pathexpr.Parse(c.query)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(c.schema, q)
	if err != nil {
		return nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, err
	}
	// The shared-work suite studies the naive unions, which the rule serves
	// factored.
	dec := translate.ChoosePlan(naive, nil, c.schema, nil)

	cmp, err := adaptiveMeasure("sharedwork", c.workload, c.query, store, naive, dec)
	if err != nil {
		return nil, err
	}
	grid := []gridItem{{name: "unfactored", q: naive}}
	chosen := "unfactored"
	if dec.Factored {
		chosen = "rewritten"
		grid = append(grid, gridItem{name: chosen, q: dec.Query})
	}
	cmp.FixedNs = measureGrid(store, grid)
	cmp.AdaptiveNs = cmp.FixedNs[chosen]
	cmp.baselineKey = "unfactored"
	cmp.finish()
	return cmp, nil
}

// gridItem is one fixed configuration to measure: a plan.
type gridItem struct {
	name string
	q    *sqlast.Query
}

// measureGrid measures every configuration in interleaved rounds and keeps
// each one's per-round minimum. The gate ratios compare configurations whose
// true times differ by under 10%, so drift across a back-to-back measurement
// block (GC pressure accumulating, noisy-neighbor scheduling) would flip
// verdicts; interleaving means drift hits all configurations alike, and the
// min discards whichever round was disturbed.
func measureGrid(store *relational.Store, items []gridItem) map[string]float64 {
	const rounds = 2
	out := make(map[string]float64, len(items))
	for r := 0; r < rounds; r++ {
		for _, it := range items {
			ns := measureOpts(store, it.q, engine.Options{})
			if ns <= 0 {
				continue
			}
			if cur, ok := out[it.name]; !ok || ns < cur {
				out[it.name] = ns
			}
		}
	}
	return out
}

// adaptiveMeasure runs the shared part of both adaptive suites: execute the
// chosen plan, verifying its multiset against the naive plan. Callers measure their fixed
// configurations, set AdaptiveNs, and call finish.
func adaptiveMeasure(suite, workload, query string, store *relational.Store, naive *sqlast.Query, dec *translate.Decision) (*AdaptiveComparison, error) {
	ctx := context.Background()
	baseRes, err := engine.Execute(ctx, store, naive, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("adaptive %s %s: baseline: %w", workload, query, err)
	}
	adRes, err := engine.Execute(ctx, store, dec.Query, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("adaptive %s %s: chosen: %w", workload, query, err)
	}
	return &AdaptiveComparison{
		Suite:      suite,
		Workload:   workload,
		Query:      query,
		KnobKey:    dec.KnobKey(),
		ActualRows: adRes.Len(),
		Verified:   baseRes.MultisetEqual(adRes),
	}, nil
}

// finish derives BestFixed/BestFixedNs and the two gate ratios once all
// fixed configurations are measured and AdaptiveNs is set.
func (c *AdaptiveComparison) finish() {
	for name, ns := range c.FixedNs {
		if ns <= 0 {
			continue
		}
		if c.BestFixedNs == 0 || ns < c.BestFixedNs || (ns == c.BestFixedNs && name < c.BestFixed) {
			c.BestFixed, c.BestFixedNs = name, ns
		}
	}
	if base := c.FixedNs[c.baselineKey]; base > 0 && c.AdaptiveNs > 0 {
		c.SpeedupVsBaseline = base / c.AdaptiveNs
	}
	if c.BestFixedNs > 0 && c.AdaptiveNs > 0 {
		c.VsBestFixed = c.AdaptiveNs / c.BestFixedNs
	}
}

// AdaptiveGate checks the acceptance gates over a measured run of the rule:
// no headline case may regress below speedup 1.0, and no shared-work case
// may run more than maxVsBest (e.g. 1.1) times the best fixed
// configuration. It returns one error per violated gate.
func AdaptiveGate(cmps []*AdaptiveComparison, maxVsBest float64) []error {
	var errs []error
	for _, c := range cmps {
		if !c.Verified {
			errs = append(errs, fmt.Errorf("adaptive %s %s %s: verification failed", c.Suite, c.Workload, c.Query))
		}
		switch c.Suite {
		case "headline":
			if c.SpeedupVsBaseline < 1.0 {
				errs = append(errs, fmt.Errorf("adaptive headline %s %s: speedup %.3f < 1.0 (chose %s)",
					c.Workload, c.Query, c.SpeedupVsBaseline, c.KnobKey))
			}
		case "sharedwork":
			if c.VsBestFixed > maxVsBest {
				errs = append(errs, fmt.Errorf("adaptive sharedwork %s %s: %.3fx the best fixed configuration %s (> %.2fx)",
					c.Workload, c.Query, c.VsBestFixed, c.BestFixed, maxVsBest))
			}
		}
	}
	return errs
}

// FormatAdaptive renders the adaptive comparisons as a fixed-width table.
func FormatAdaptive(cmps []*AdaptiveComparison) string {
	var b strings.Builder
	b.WriteString("Plan rule: pruned unless it fell back, factored baseline otherwise, vs fixed configurations\n")
	fmt.Fprintf(&b, "%-10s %-18s %-28s %-34s %10s %10s %8s %7s %3s\n",
		"suite", "workload", "query", "knobs", "adapt/op", "best/op", "speedup", "vsbest", "ok")
	b.WriteString(strings.Repeat("-", 136))
	b.WriteString("\n")
	for _, c := range cmps {
		ok := "yes"
		if !c.Verified {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-10s %-18s %-28s %-34s %10s %10s %7.2fx %6.2fx %3s\n",
			c.Suite, c.Workload, truncate(c.Query, 28), truncate(c.KnobKey, 34),
			fmtNs(c.AdaptiveNs), fmtNs(c.BestFixedNs), c.SpeedupVsBaseline, c.VsBestFixed, ok)
	}
	return b.String()
}
