package translate

import (
	"fmt"
	"runtime"

	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
)

// Decision is the adaptive chooser's record of one query's plan-level
// selections, with the estimates that justified them; xml2sql -explain
// prints it.
type Decision struct {
	// UsePruned reports that the pruned (constraint-exploiting) translation
	// was chosen over the baseline. The pruned plan must clear
	// stats.PlanMargin: when pruning merely drops a near-free join (the
	// regressing headline cases, where both plans cost within a few
	// percent), the measured-safe baseline wins.
	UsePruned bool
	// Factored reports that the shared-prefix factored rewrite was adopted.
	Factored bool
	// Reordered reports that at least one branch's joins were reordered.
	Reordered bool

	// BaselineEst/PrunedEst are the candidates' estimates (PrunedEst is nil
	// when translation fell back to the baseline); ChosenEst estimates the
	// final Query after rewrites.
	BaselineEst *stats.QueryEstimate
	PrunedEst   *stats.QueryEstimate
	ChosenEst   *stats.QueryEstimate

	// Query is the chosen, possibly rewritten plan.
	Query *sqlast.Query
}

// KnobKey is the compact knob vector naming this decision in explanations
// and reports.
func (d *Decision) KnobKey() string {
	plan := "baseline"
	if d.UsePruned {
		plan = "pruned"
	}
	return fmt.Sprintf("plan=%s,factor=%t,reorder=%t", plan, d.Factored, d.Reordered)
}

// ExpectParallel reports the execution-time serial/parallel decision the
// engine's Auto mode will take for the chosen plan on this machine.
func (d *Decision) ExpectParallel() bool {
	return d.ChosenEst.ParallelWorthwhile(runtime.GOMAXPROCS(0))
}

// ExpectMemo reports the execution-time memo decision the engine's Auto
// mode will take for the chosen plan.
func (d *Decision) ExpectMemo() bool { return d.ChosenEst.MemoWorthwhile() }

// ChoosePlan runs the cost-based plan chooser over a query's candidate
// translations. naive is the baseline (always correct); pruned is the
// constraint-exploiting translation, or nil when translation fell back to
// the baseline. The chooser (1) keeps the pruned plan only when its
// estimated cost clears stats.PlanMargin against the baseline, (2) adopts
// the shared-prefix factored rewrite when it clears stats.FactorMargin,
// and (3) greedily reorders joins within branches when that clears
// stats.ReorderMargin. Execution-time knobs (serial/parallel, memo) are not
// decided here: the engine's Options.Auto resolves them from ChosenEst.
func ChoosePlan(naive, pruned *sqlast.Query, s *schema.Schema, est *stats.Estimator) *Decision {
	d := &Decision{BaselineEst: est.EstimateQuery(naive), Query: naive}
	d.ChosenEst = d.BaselineEst
	if pruned != nil {
		d.PrunedEst = est.EstimateQuery(pruned)
		if d.PrunedEst.Cost < stats.PlanMargin*d.BaselineEst.Cost {
			d.UsePruned = true
			d.Query = pruned
			d.ChosenEst = d.PrunedEst
		}
	}

	if factored, changed := FactorSharedPrefixes(d.Query, s); changed {
		fEst := est.EstimateQuery(factored)
		// Factoring competes with the engine's subplan memo, which exploits
		// the same shared prefixes without rewriting the plan: the factored
		// plan must beat the unfactored one as the memo would run it, i.e.
		// net of the reuse the memo is estimated to capture.
		target := d.ChosenEst.Cost
		if d.ChosenEst.MemoWorthwhile() {
			target -= d.ChosenEst.SharedReuseCost
		}
		if fEst.Cost < stats.FactorMargin*target {
			d.Factored = true
			d.Query = factored
			d.ChosenEst = fEst
		}
	}

	if reordered, changed := ReorderJoins(d.Query, est); changed {
		// ReorderJoins already enforced its own margin per branch.
		d.Reordered = true
		d.Query = reordered
		d.ChosenEst = est.EstimateQuery(reordered)
	}
	return d
}
