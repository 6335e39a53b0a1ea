package bench_test

import (
	"strings"
	"testing"

	"xmlsql/internal/bench"
	"xmlsql/internal/workloads"
)

// tinyScale keeps the harness test fast; shapes are scale-independent.
func tinyScale() bench.Scale {
	return bench.Scale{ItemsPerContinent: 10, AdsPerSection: 10, S1Groups: 10, S2Groups: 10, S3Fanout: 2, S3Depth: 3}
}

func TestSuiteCoversAllExperiments(t *testing.T) {
	cases := bench.Suite(tinyScale())
	seen := map[string]bool{}
	for _, c := range cases {
		seen[c.Experiment] = true
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"} {
		if !seen[id] {
			t.Errorf("experiment %s missing from suite", id)
		}
	}
}

func TestRunVerifiesAndMeasures(t *testing.T) {
	c := bench.Case{
		Experiment: "E1",
		Workload:   "xmark",
		Query:      workloads.QueryQ1,
		Schema:     workloads.XMark(),
		Doc:        workloads.GenerateXMark(workloads.XMarkConfig{ItemsPerContinent: 5, CategoriesPerItem: 1, NumCategories: 5, Seed: 1}),
	}
	cmp, err := bench.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Verified {
		t.Error("verification failed")
	}
	if cmp.Rows != 5*6 {
		t.Errorf("rows = %d, want 30", cmp.Rows)
	}
	if cmp.NaiveShape.Branches != 6 || cmp.PrunedShape.Joins != 0 {
		t.Errorf("shapes: naive %v, pruned %v", cmp.NaiveShape, cmp.PrunedShape)
	}
	if cmp.NaiveNs <= 0 || cmp.PrunedNs <= 0 || cmp.Speedup <= 0 {
		t.Errorf("timings not measured: %v / %v", cmp.NaiveNs, cmp.PrunedNs)
	}
	if cmp.PrunedWork <= 0 || cmp.PrunedWork >= cmp.NaiveWork {
		t.Errorf("work: naive %d, pruned %d; want 0 < pruned < naive", cmp.NaiveWork, cmp.PrunedWork)
	}
}

func TestRunOnFakeDBBackend(t *testing.T) {
	c := bench.Case{
		Experiment: "E1",
		Workload:   "xmark",
		Query:      workloads.QueryQ1,
		Schema:     workloads.XMark(),
		Doc:        workloads.GenerateXMark(workloads.XMarkConfig{ItemsPerContinent: 5, CategoriesPerItem: 1, NumCategories: 5, Seed: 1}),
	}
	cmp, err := bench.RunOn(c, "fakedb")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := bench.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NaiveWork != mem.NaiveWork || cmp.PrunedWork != mem.PrunedWork {
		t.Errorf("fakedb work %d/%d, mem work %d/%d; work is counted on mem under every backend",
			cmp.NaiveWork, cmp.PrunedWork, mem.NaiveWork, mem.PrunedWork)
	}
	if !cmp.Verified {
		t.Error("verification failed on fakedb backend")
	}
	if cmp.Backend != "db(sqlite)" {
		t.Errorf("backend label = %q, want db(sqlite)", cmp.Backend)
	}
	rep := bench.BuildReport("xmlsql", 1, []*bench.Comparison{cmp}, bench.Sections{})
	if rep.Backend != "db(sqlite)" {
		t.Errorf("report backend = %q, want db(sqlite)", rep.Backend)
	}

	if _, err := bench.RunOn(c, "nosuch"); err == nil {
		t.Error("unknown backend name accepted")
	}
}

func TestRunSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	cmps, err := bench.RunSuite(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) < 20 {
		t.Fatalf("suite ran %d cases", len(cmps))
	}
	for _, c := range cmps {
		if !c.Verified {
			t.Errorf("%s %s: verification failed", c.Experiment, c.Query)
		}
		if c.PrunedShape.Joins > c.NaiveShape.Joins {
			t.Errorf("%s %s: pruned has more joins (%v) than naive (%v)",
				c.Experiment, c.Query, c.PrunedShape, c.NaiveShape)
		}
		if c.PrunedWork > c.NaiveWork {
			t.Errorf("%s: pruned does more work (%d) than naive (%d)", c.Name(), c.PrunedWork, c.NaiveWork)
		}
	}
	table := bench.FormatTable(cmps)
	if !strings.Contains(table, "E1") || !strings.Contains(table, "speedup") {
		t.Error("table formatting broken")
	}
	if sum := bench.Summary(cmps); !strings.Contains(sum, "speedup range") {
		t.Errorf("summary = %q", sum)
	}
	if det := bench.FormatDetails(cmps[:1]); !strings.Contains(det, "baseline [9]") {
		t.Error("details formatting broken")
	}
}

// TestSummaryCountsWorkRegressions pins what a regression is: a case whose
// pruned plan does more work than the baseline. A case that is only slower
// on the clock is named, not counted.
func TestSummaryCountsWorkRegressions(t *testing.T) {
	cmp := func(query string, naiveWork, prunedWork int, speedup float64) *bench.Comparison {
		return &bench.Comparison{Case: bench.Case{Experiment: "E8", Workload: "w", Query: query},
			NaiveWork: naiveWork, PrunedWork: prunedWork, Speedup: speedup, Verified: true}
	}
	cmps := []*bench.Comparison{
		cmp("/faster", 10, 5, 2),
		cmp("/parity", 10, 10, 0.97),
		cmp("/more-work", 10, 11, 1.2),
	}
	sum := bench.Summary(cmps)
	for _, want := range []string{"1 regressions", "slower on the clock only: E8 w /parity\n"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	rep := bench.BuildReport("xmlsql", 1, cmps, bench.Sections{}).Summary
	if rep.Regressions != 1 || len(rep.ClockOnly) != 1 || rep.ClockOnly[0] != "E8 w /parity" {
		t.Errorf("report summary = %+v", rep)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	out, err := bench.RunAblations(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"edge-annotation", "combinability", "nested loops"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q:\n%s", want, out)
		}
	}
}

// TestScalingSeriesSmall pins the reworked series: one instance per scale,
// both arms verified on it, monotone tuple counts, and JSON-ready points.
func TestScalingSeriesSmall(t *testing.T) {
	pts, err := bench.ScalingSeries("//Item/InCategory/Category", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[1].Tuples <= pts[0].Tuples {
		t.Errorf("tuples not growing with scale: %d then %d", pts[0].Tuples, pts[1].Tuples)
	}
	for _, p := range pts {
		if !p.Verified || p.Speedup <= 0 {
			t.Errorf("scale x%d: verified=%v speedup=%v", p.Scale, p.Verified, p.Speedup)
		}
	}
}
