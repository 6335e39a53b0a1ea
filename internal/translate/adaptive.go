package translate

import (
	"fmt"

	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
)

// The reasons a Decision records for the plan it serves.
const (
	// ReasonPruned: the constraint-exploiting translation exists and serves.
	ReasonPruned = "pruned"
	// ReasonFallback: pruning could not establish safe suffixes, so the
	// factored baseline serves.
	ReasonFallback = "fallback"
	// ReasonSafeMode: the instance is not trusted to satisfy the
	// lossless-from-XML constraint, so the factored baseline serves.
	ReasonSafeMode = "safe mode"
)

// Decision is the plan rule's record for one query: which translation is
// served, whether the shared-prefix rewrite changed it, and why. xml2sql
// -explain and the planner's Explain report it.
type Decision struct {
	// UsePruned reports that the pruned (constraint-exploiting) translation
	// is served; otherwise the baseline is.
	UsePruned bool
	// Factored reports that the shared-prefix rewrite changed the served
	// baseline. Pruned plans are never factored.
	Factored bool
	// Reason is ReasonPruned, ReasonFallback or ReasonSafeMode.
	Reason string
	// Query is the served plan.
	Query *sqlast.Query
}

// KnobKey is the compact knob vector naming this decision in explanations
// and reports.
func (d *Decision) KnobKey() string {
	plan := "baseline"
	if d.UsePruned {
		plan = "pruned"
	}
	return fmt.Sprintf("plan=%s,factor=%t", plan, d.Factored)
}

// ChoosePlan applies the plan rule to a query's candidate translations.
// naive is the baseline (always correct); pruned is the constraint-exploiting
// translation, or nil when translation fell back. The rule serves pruned
// whenever it exists: its validity rests on the lossless-from-XML constraint
// (§3.2), not on the data, and the trust gate serves the baseline when the
// constraint is in doubt. Otherwise the baseline serves with the shared-prefix
// rewrite applied. Pruned plans are not factored: their branches do not
// share prefixes. est is ignored; it remains so existing callers compile.
func ChoosePlan(naive, pruned *sqlast.Query, s *schema.Schema, est *stats.Estimator) *Decision {
	if pruned != nil {
		return &Decision{UsePruned: true, Reason: ReasonPruned, Query: pruned}
	}
	q, factored := FactorSharedPrefixes(naive, s)
	return &Decision{Factored: factored, Reason: ReasonFallback, Query: q}
}
