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

func TestRunChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	cmps, err := bench.RunChaos(1)
	if err != nil {
		t.Fatal(err)
	}
	var faults, retries, trips, fallbacks int64
	for _, c := range cmps {
		if !c.Verified {
			t.Errorf("%s/%s: chaos verification failed", c.Scenario, c.Workload)
		}
		faults += c.Faults
		retries += c.Retries
		trips += c.BreakerTrips
		fallbacks += c.Fallbacks
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("chaos suite injected %d faults / %d retries; the faults scenario is vacuous", faults, retries)
	}
	if trips == 0 || fallbacks == 0 {
		t.Fatalf("chaos suite recorded %d trips / %d fallbacks; the outage scenario is vacuous", trips, fallbacks)
	}
	if out := bench.FormatChaos(cmps); !strings.Contains(out, "outage") || !strings.Contains(out, "fallbacks") {
		t.Error("chaos table formatting broken")
	}
}

func TestRunAudit(t *testing.T) {
	cmps, err := bench.RunAudit()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) < 5 {
		t.Fatalf("audit suite covered %d workloads", len(cmps))
	}
	for _, c := range cmps {
		if !c.Verified {
			t.Errorf("%s: audit verification failed", c.Workload)
		}
		if c.Tuples == 0 || c.Injected == 0 || c.Violations < c.Injected || c.Degradations == 0 {
			t.Errorf("%s: vacuous audit numbers: %+v", c.Workload, c)
		}
	}
	if out := bench.FormatAudit(cmps); !strings.Contains(out, "violations") || !strings.Contains(out, "degradations") {
		t.Error("audit table formatting broken")
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

func TestRunUpdatesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	cmps, err := bench.RunUpdates(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 1 {
		t.Fatalf("got %d comparisons, want 1", len(cmps))
	}
	c := cmps[0]
	if !c.Verified {
		t.Errorf("updates run not verified: %+v", c)
	}
	if c.Batches == 0 || c.BatchNs <= 0 || c.WrittenPerBatch == 0 {
		t.Errorf("throughput numbers missing: %+v", c)
	}
	if c.IncrementalAuditNs <= 0 || c.FullAuditNs <= 0 {
		t.Errorf("audit timings missing: %+v", c)
	}
	if !c.UntouchedKeptHot {
		t.Error("untouched query lost its cached plan across a write")
	}
	// The 5x audit gate is asserted at benchrunner scale, not here: at the
	// tiny harness scale a full scan is nearly as cheap as the neighborhood
	// probe. The gate machinery itself must still flag an impossible bar.
	if errs := bench.UpdatesGate(cmps, 1e12); len(errs) == 0 {
		t.Error("UpdatesGate accepted an impossible speedup bar")
	}
}

// TestRunShardedSmall runs a miniature sharded sweep: every point must
// verify against the single store (before and after the mixed writes), skew
// and merge overhead must be recorded, and the gate must pass with the
// speedup requirement waived (a tiny instance has nothing to amortize).
func TestRunShardedSmall(t *testing.T) {
	rep, err := bench.RunSharded(bench.ShardedConfig{
		Scales: []int{4}, ShardCounts: []int{1, 2}, MixedRounds: 1, MixedReads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sweeps) != 1 || len(rep.Sweeps[0].Sweep) != 2 {
		t.Fatalf("sweep shape: %d scales, %d points", len(rep.Sweeps), len(rep.Sweeps[0].Sweep))
	}
	for _, pt := range rep.Sweeps[0].Sweep {
		if !pt.Verified {
			t.Errorf("%d-shard point not verified", pt.Shards)
		}
		if len(pt.RowsPerShard) != pt.Shards || pt.MaxRowShare <= 0 {
			t.Errorf("%d-shard point missing skew data: rows %v, share %v", pt.Shards, pt.RowsPerShard, pt.MaxRowShare)
		}
		if pt.MergeNsPerScatter <= 0 {
			t.Errorf("%d-shard point missing overhead counters: merge %v", pt.Shards, pt.MergeNsPerScatter)
		}
	}
	if errs := bench.ShardedGate(rep, 2, 0.01); len(errs) > 0 {
		t.Fatalf("gate: %v", errs)
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
