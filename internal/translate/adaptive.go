package translate

import (
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
)

// The reasons a Decision records for the plan it serves.
const (
	// ReasonPruned: the constraint-exploiting translation exists and serves.
	ReasonPruned = "pruned"
	// ReasonFallback: pruning could not establish safe suffixes, so the
	// baseline serves.
	ReasonFallback = "fallback"
	// ReasonSafeMode: the instance is not trusted to satisfy the
	// lossless-from-XML constraint, so the baseline serves.
	ReasonSafeMode = "safe mode"
)

// Decision is the plan rule's record for one query: which translation is
// served, and why. xml2sql -explain and the planner's Explain report it.
type Decision struct {
	// UsePruned reports that the pruned (constraint-exploiting) translation
	// is served; otherwise the baseline is.
	UsePruned bool
	// Reason is ReasonPruned, ReasonFallback or ReasonSafeMode.
	Reason string
	// Query is the served plan.
	Query *sqlast.Query
}

// KnobKey is the compact knob vector naming this decision in explanations
// and reports.
func (d *Decision) KnobKey() string {
	if d.UsePruned {
		return "plan=pruned"
	}
	return "plan=baseline"
}

// ChoosePlan applies the plan rule to a query's candidate translations:
// pruned if it exists, else the baseline. naive is the baseline of [9]
// (§3.4), correct on any instance; pruned is the constraint-exploiting
// translation, or nil when translation fell back. Pruned's validity rests on
// the lossless-from-XML constraint (§3.2), not on the data, and the trust
// gate serves the baseline when the constraint is in doubt. Either plan
// serves exactly as emitted. s and est are ignored; they remain because the
// repository benchmark calls ChoosePlan with all four arguments.
func ChoosePlan(naive, pruned *sqlast.Query, s *schema.Schema, est *stats.Estimator) *Decision {
	if pruned != nil {
		return &Decision{UsePruned: true, Reason: ReasonPruned, Query: pruned}
	}
	return &Decision{Reason: ReasonFallback, Query: naive}
}
