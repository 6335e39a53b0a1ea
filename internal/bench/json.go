package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// Report is the machine-readable form of a benchrunner run, written by the
// -json flag so the perf trajectory can be tracked across PRs (one
// BENCH_<name>.json-style document per run).
type Report struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
	// Backend names where the measured executions ran ("mem", or
	// "db(sqlite)" for the database/sql route over the fake driver).
	Backend    string       `json:"backend"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Cases      []ReportCase `json:"cases"`
	// Adaptive records the plan rule against every fixed knob setting on
	// the headline cases, gated on exact work and on speedup >= 1.0 (the
	// rule serves the pruned translation).
	Adaptive []*AdaptiveComparison `json:"adaptive,omitempty"`
	// ServingFrontend records the closed-loop runs against the live network
	// front end (HTTP and line protocol, under-capacity and overload):
	// sustained QPS, shed rate, and p50/p99/p999 accepted-query latency.
	ServingFrontend []*FrontendComparison `json:"serving_frontend,omitempty"`
	// Scaling records the Q1 speedup-vs-document-size series (one generated
	// and shredded instance per scale, shared by both arms).
	Scaling *ScalingSection `json:"scaling,omitempty"`
	Summary ReportSummary   `json:"summary"`
}

// ReportCase is one experiment case's measurements.
type ReportCase struct {
	Experiment  string  `json:"experiment"`
	Workload    string  `json:"workload"`
	Query       string  `json:"query"`
	NaiveShape  string  `json:"naive_shape"`
	PrunedShape string  `json:"pruned_shape"`
	Fallback    bool    `json:"fallback"`
	Rows        int     `json:"rows"`
	StoreRows   int     `json:"store_rows"`
	NaiveWork   int     `json:"naive_work"`
	PrunedWork  int     `json:"pruned_work"`
	NaiveNs     float64 `json:"naive_ns"`
	PrunedNs    float64 `json:"pruned_ns"`
	Speedup     float64 `json:"speedup"`
	Verified    bool    `json:"verified"`
}

// ReportSummary aggregates the speedup distribution. Regressions counts
// cases whose pruned plan does more work than the baseline; ClockOnly names
// the cases that are slower on the clock without doing more work.
type ReportSummary struct {
	Queries     int      `json:"queries"`
	MinSpeedup  float64  `json:"min_speedup"`
	MaxSpeedup  float64  `json:"max_speedup"`
	Over10x     int      `json:"over_10x"`
	Regressions int      `json:"regressions"`
	ClockOnly   []string `json:"slower_on_clock_only,omitempty"`
	AllVerified bool     `json:"all_verified"`
}

// Sections carries every optional suite's results into BuildReport; nil
// slices and pointers simply omit their section from the JSON.
type Sections struct {
	Adaptive []*AdaptiveComparison
	Frontend []*FrontendComparison
	Scaling  *ScalingSection
}

// BuildReport assembles the JSON report from measured comparisons.
func BuildReport(name string, scale int, cmps []*Comparison, sec Sections) *Report {
	r := &Report{
		Name:            name,
		Scale:           scale,
		Backend:         "mem",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Adaptive:        sec.Adaptive,
		ServingFrontend: sec.Frontend,
		Scaling:         sec.Scaling,
		Summary:         summarize(cmps),
	}
	for _, c := range cmps {
		if c.Backend != "" {
			r.Backend = c.Backend
		}
		r.Cases = append(r.Cases, ReportCase{
			Experiment:  c.Experiment,
			Workload:    c.Workload,
			Query:       c.Query,
			NaiveShape:  c.NaiveShape.String(),
			PrunedShape: c.PrunedShape.String(),
			Fallback:    c.Fallback,
			Rows:        c.Rows,
			StoreRows:   c.TotalRows,
			NaiveWork:   c.NaiveWork,
			PrunedWork:  c.PrunedWork,
			NaiveNs:     c.NaiveNs,
			PrunedNs:    c.PrunedNs,
			Speedup:     c.Speedup,
			Verified:    c.Verified,
		})
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
