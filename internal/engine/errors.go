package engine

import "fmt"

// Resource names the execution guard a ResourceError reports.
type Resource string

const (
	// ResourceRows is the Options.MaxRows guard on materialized rows.
	ResourceRows Resource = "rows"
	// ResourceCTEIterations is the Options.MaxCTEIterations guard on
	// recursive CTE rounds.
	ResourceCTEIterations Resource = "cte-iterations"
)

// ResourceError reports that a query exceeded one of the execution resource
// guards (Options.MaxRows, Options.MaxCTEIterations). It is a distinct type
// so servers can tell a budget-exceeded query — the caller's query is too
// expensive and retrying it cannot help — apart from transient backend
// faults and from cancellation, which the caller asked for.
type ResourceError struct {
	// Resource is which guard tripped.
	Resource Resource
	// Limit is the configured bound that was exceeded.
	Limit int
	// Detail locates the violation (e.g. the recursive CTE's name).
	Detail string
}

// Error implements error.
func (e *ResourceError) Error() string {
	msg := fmt.Sprintf("engine: query exceeded %s limit %d", e.Resource, e.Limit)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}
