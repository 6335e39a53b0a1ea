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
	Backend    string               `json:"backend"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Cases      []ReportCase         `json:"cases"`
	Serving    []*ServingComparison `json:"serving,omitempty"`
	// Chaos records the resilience counters (retries, breaker trips,
	// degraded fallbacks) of the injected-fault suite, so the robustness
	// trajectory is tracked alongside the perf one.
	Chaos []*ChaosComparison `json:"chaos,omitempty"`
	// Audit records the integrity sentinel's numbers (audit durations,
	// violations detected on corrupted copies, safe-mode degradations), so
	// the constraint-checking trajectory is tracked too.
	Audit []*AuditComparison `json:"audit,omitempty"`
	// Adaptive records the plan rule against every fixed knob setting:
	// headline cases gated on speedup >= 1.0 (the rule serves the pruned
	// translation), shared-work cases gated on staying within 10% of the
	// best fixed configuration (the rule serves the factored baseline).
	Adaptive []*AdaptiveComparison `json:"adaptive,omitempty"`
	// ServingFrontend records the closed-loop runs against the live network
	// front end (HTTP and line protocol, under-capacity and overload):
	// sustained QPS, shed rate, and p50/p99/p999 accepted-query latency.
	ServingFrontend []*FrontendComparison `json:"serving_frontend,omitempty"`
	// Updates records the transactional update path: batch apply cost,
	// incremental-vs-full audit latency, and post-write hot-query recovery
	// with scoped cache invalidation.
	Updates []*UpdateComparison `json:"updates,omitempty"`
	// Recovery records the durability suite: write-ahead-logged vs volatile
	// update throughput, log footprint, and cold-recovery (snapshot load +
	// verified replay) cost.
	Recovery []*RecoveryComparison `json:"recovery,omitempty"`
	// Scaling records the Q1 speedup-vs-document-size series (one generated
	// and shredded instance per scale, shared by both arms).
	Scaling *ScalingSection `json:"scaling,omitempty"`
	// Sharded records the scatter-gather suite: shard-count sweeps at
	// scale=10/100 with per-shard skew, merge overhead, and the mixed
	// read/write serving comparison against the single store.
	Sharded *ShardedReport `json:"sharded,omitempty"`
	Summary ReportSummary  `json:"summary"`
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
	NaiveNs     float64 `json:"naive_ns"`
	PrunedNs    float64 `json:"pruned_ns"`
	Speedup     float64 `json:"speedup"`
	Verified    bool    `json:"verified"`
}

// ReportSummary aggregates the speedup distribution.
type ReportSummary struct {
	Queries     int     `json:"queries"`
	MinSpeedup  float64 `json:"min_speedup"`
	MaxSpeedup  float64 `json:"max_speedup"`
	Over10x     int     `json:"over_10x"`
	Regressions int     `json:"regressions"`
	AllVerified bool    `json:"all_verified"`
}

// Sections carries every optional suite's results into BuildReport; nil
// slices and pointers simply omit their section from the JSON.
type Sections struct {
	Serving  []*ServingComparison
	Chaos    []*ChaosComparison
	Audit    []*AuditComparison
	Adaptive []*AdaptiveComparison
	Frontend []*FrontendComparison
	Updates  []*UpdateComparison
	Recovery []*RecoveryComparison
	Scaling  *ScalingSection
	Sharded  *ShardedReport
}

// BuildReport assembles the JSON report from measured comparisons.
func BuildReport(name string, scale int, cmps []*Comparison, sec Sections) *Report {
	r := &Report{
		Name:            name,
		Scale:           scale,
		Backend:         "mem",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Serving:         sec.Serving,
		Chaos:           sec.Chaos,
		Audit:           sec.Audit,
		Adaptive:        sec.Adaptive,
		ServingFrontend: sec.Frontend,
		Updates:         sec.Updates,
		Recovery:        sec.Recovery,
		Scaling:         sec.Scaling,
		Sharded:         sec.Sharded,
		Summary:         ReportSummary{AllVerified: true},
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
			NaiveNs:     c.NaiveNs,
			PrunedNs:    c.PrunedNs,
			Speedup:     c.Speedup,
			Verified:    c.Verified,
		})
		if r.Summary.Queries == 0 || c.Speedup < r.Summary.MinSpeedup {
			r.Summary.MinSpeedup = c.Speedup
		}
		if c.Speedup > r.Summary.MaxSpeedup {
			r.Summary.MaxSpeedup = c.Speedup
		}
		if c.Speedup >= 10 {
			r.Summary.Over10x++
		}
		if c.Speedup < 1 {
			r.Summary.Regressions++
		}
		if !c.Verified {
			r.Summary.AllVerified = false
		}
		r.Summary.Queries++
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
