package bench

import (
	"fmt"
	"strings"
)

// FormatTable renders comparisons as the fixed-width table printed by
// cmd/benchrunner and recorded in EXPERIMENTS.md. The work columns are
// engine.Work totals: exact, so they decide regressions; the times do not.
func FormatTable(cmps []*Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-15s %-45s %-26s %-26s %10s %10s %8s %11s %11s %3s\n",
		"id", "workload", "query", "naive shape", "pruned shape", "naive/op", "pruned/op", "speedup", "naive work", "pruned work", "ok")
	b.WriteString(strings.Repeat("-", 178))
	b.WriteString("\n")
	for _, c := range cmps {
		ok := "yes"
		if !c.Verified {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-3s %-15s %-45s %-26s %-26s %10s %10s %7.2fx %11d %11d %3s\n",
			c.Experiment, c.Workload, truncate(c.Query, 45),
			c.NaiveShape.String(), c.PrunedShape.String(),
			fmtNs(c.NaiveNs), fmtNs(c.PrunedNs), c.Speedup, c.NaiveWork, c.PrunedWork, ok)
	}
	return b.String()
}

// FormatDetails renders the per-case SQL for the experiment log.
func FormatDetails(cmps []*Comparison) string {
	var b strings.Builder
	for _, c := range cmps {
		fmt.Fprintf(&b, "=== %s [%s] %s\n", c.Experiment, c.Workload, c.Query)
		fmt.Fprintf(&b, "    %s\n", c.Description)
		fmt.Fprintf(&b, "    store: %d tuples; result: %d rows; verified: %v\n", c.TotalRows, c.Rows, c.Verified)
		fmt.Fprintf(&b, "--- baseline [9] (%s):\n%s\n", c.NaiveShape, indent(c.NaiveSQL))
		fmt.Fprintf(&b, "--- lossless-from-XML (%s):\n%s\n\n", c.PrunedShape, indent(c.PrunedSQL))
	}
	return b.String()
}

// Summary aggregates the speedup distribution, the statistic the paper
// quotes from [10] (1.15x–93x, many queries >= 10x). A regression is a case
// whose pruned plan does more work than the baseline; a case that is only
// slower on the clock is named, not counted.
func Summary(cmps []*Comparison) string {
	if len(cmps) == 0 {
		return "no results\n"
	}
	sum := summarize(cmps)
	var b strings.Builder
	fmt.Fprintf(&b, "speedup range %.2fx – %.2fx over %d queries; %d at >= 10x; %d regressions (pruned does more work); all results verified: %v\n",
		sum.MinSpeedup, sum.MaxSpeedup, sum.Queries, sum.Over10x, sum.Regressions, sum.AllVerified)
	if len(sum.ClockOnly) > 0 {
		fmt.Fprintf(&b, "slower on the clock only: %s\n", strings.Join(sum.ClockOnly, "; "))
	}
	return b.String()
}

func summarize(cmps []*Comparison) ReportSummary {
	sum := ReportSummary{Queries: len(cmps), AllVerified: true}
	for i, c := range cmps {
		if i == 0 || c.Speedup < sum.MinSpeedup {
			sum.MinSpeedup = c.Speedup
		}
		if c.Speedup > sum.MaxSpeedup {
			sum.MaxSpeedup = c.Speedup
		}
		if c.Speedup >= 10 {
			sum.Over10x++
		}
		if c.PrunedWork > c.NaiveWork {
			sum.Regressions++
		} else if c.Speedup < 1 {
			sum.ClockOnly = append(sum.ClockOnly, c.Name())
		}
		if !c.Verified {
			sum.AllVerified = false
		}
	}
	return sum
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n")
}
