package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json; the lists below are held
// equal to that file by a test.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of the system sees, with the share of
// the parent's median by which each may get worse.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p99_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, measured from outside by the
// traced run. A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{Name: "pathexpr.parse_us", Unit: "us", Better: "lower"},
	{Name: "pathid.build_us", Unit: "us", Better: "lower"},
	{Name: "pathid.cp_nodes", Unit: "count", Better: "lower"},
	{Name: "core.translate_us", Unit: "us", Better: "lower"},
	{Name: "core.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "translate.naive_us", Unit: "us", Better: "lower"},
	{Name: "translate.choose_us", Unit: "us", Better: "lower"},
	{Name: "sqlast.joins_per_query", Unit: "count", Better: "lower"},
	{Name: "sqlast.naive_joins_per_query", Unit: "count", Better: "lower"},
	{Name: "sqlast.branches_per_query", Unit: "count", Better: "lower"},
	{Name: "sqlast.ctes_per_query", Unit: "count", Better: "lower"},
	{Name: "sqlast.recursive_share", Unit: "ratio", Better: "lower"},
	{Name: "sqlast.render_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.hit_us", Unit: "us", Better: "lower"},
	{Name: "plancache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "plancache.miss_after_write_share", Unit: "ratio", Better: "lower"},
	{Name: "planner.cold_exec_us", Unit: "us", Better: "lower"},
	{Name: "planner.hot_exec_us", Unit: "us", Better: "lower"},
	{Name: "planner.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.naive_exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.pruned_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.rows_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.memo_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "sharded.exec_us", Unit: "us", Better: "lower"},
	{Name: "sharded.shard_exec_us_max", Unit: "us", Better: "lower"},
	{Name: "sharded.merge_us_per_scatter", Unit: "us", Better: "lower"},
	{Name: "sharded.merged_rows_per_scatter", Unit: "count", Better: "lower"},
	{Name: "sharded.max_row_share", Unit: "ratio", Better: "lower"},
	{Name: "sharded.n1_over_single", Unit: "ratio", Better: "lower"},
	{Name: "server.exec_us", Unit: "us", Better: "lower"},
	{Name: "server.line_front_us", Unit: "us", Better: "lower"},
	{Name: "server.http_front_us", Unit: "us", Better: "lower"},
	{Name: "server.line_rtt_over_exec", Unit: "ratio", Better: "lower"},
	{Name: "server.http_rtt_over_exec", Unit: "ratio", Better: "lower"},
	{Name: "server.http_resp_bytes_per_row", Unit: "count", Better: "lower"},
	{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "client.http_decode_us", Unit: "us", Better: "lower"},
	{Name: "client.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.update_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "update.apply_us", Unit: "us", Better: "lower"},
	{Name: "update.stmts_per_batch", Unit: "count", Better: "lower"},
	{Name: "integrity.audit_incremental_us", Unit: "us", Better: "lower"},
	{Name: "integrity.audit_full_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.commit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_batch", Unit: "count", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.rescans_per_update", Unit: "count", Better: "lower"},
	{Name: "workloads.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "shred.load_ms", Unit: "ms", Better: "lower"},
	{Name: "shred.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "shred.tuples", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metric is one measured value. Where the value is a median over the
// measured windows, Windows holds the windows' values in time order and Min
// and Max their extremes.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// windowed is the metric of a per-window measurement: the median over the
// windows.
func windowed(perWindow []float64, unit string) metric {
	s := summarize(perWindow)
	return metric{Value: s.Median, Unit: unit, Min: s.Min, Max: s.Max, Windows: perWindow}
}

// machine records where a result was measured.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	// Noisy is set when the 1-minute load average at the start exceeded the
	// number of processors: somebody else was using them.
	Noisy bool `json:"noisy"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			m.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	m.Noisy = m.LoadAvg1 > float64(m.NProc)
	return m
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Clients   int               `json:"clients"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []spanStats       `json:"spans,omitempty"`
	Machine   machine           `json:"machine"`
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	js, _ := json.Marshal(out) // plain numbers and strings always marshal
	return string(js)
}

// print writes every metric by name with its unit, in BENCHMARK.json order.
func (r *result) print(w io.Writer) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	kind := "end to end"
	if r.Traced {
		kind = "per layer (traced run)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %d clients  digest %.12s\n", r.Workload, r.Seed, kind, r.Clients, r.Digest)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Min != 0 || m.Max != 0 {
			line += fmt.Sprintf(" [%.4f .. %.4f]", m.Min, m.Max)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.Traced {
		fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "p50 us", "self ms")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-34s %8d %12.2f %12.2f\n", s.Name, s.Count, s.P50Us, s.SelfMs)
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", r.Error)
	}
}

// report is the file -out writes: every workload's untraced and traced
// result. It claims nothing.
type report struct {
	Machine machine   `json:"machine"`
	Results []*result `json:"results"`
	Claim   *string   `json:"claim"`
}

func jsonIndent(v any) (string, error) {
	js, err := json.MarshalIndent(v, "", "  ")
	return string(js), err
}

func writeJSON(path string, v any) error {
	js, err := jsonIndent(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(js+"\n"), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare prints, per workload and end-to-end metric, both values, the
// relative difference (positive = b is worse) and the bound, and marks each
// row ok, regressed, or unresolved when the windows of either side are
// spread (quartile to quartile) wider than the bound. It returns the number
// of rows not ok.
func compare(w io.Writer, a, b *report) int {
	bad := 0
	byName := func(rep *report) map[string]*result {
		m := map[string]*result{}
		for _, r := range rep.Results {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	am, bm := byName(a), byName(b)
	if a.Machine.Noisy || b.Machine.Noisy {
		fmt.Fprintln(w, "warning: a side was measured on a busy machine (noisy: true)")
	}
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wd := range workloadDefs {
		ra, rb := am[wd.name], bm[wd.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			verdict, worse := judge(d, ma, mb)
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wd.name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return bad
}

func judge(d metricDef, a, b metric) (verdict string, worse float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case windowSpread(a.Windows) > d.Bound || windowSpread(b.Windows) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	}
	return "ok", worse
}
