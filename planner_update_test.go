package xmlsql_test

import (
	"context"
	"errors"
	"testing"

	"xmlsql"
	"xmlsql/internal/relational"
	"xmlsql/internal/workloads"
)

// newUpdatePlanner shreds a small XMark instance and serves it through a
// planner configured by mutate.
func newUpdatePlanner(t *testing.T, mutate func(*xmlsql.PlannerConfig)) (*xmlsql.Planner, *xmlsql.Store) {
	t.Helper()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 8, Seed: 7,
	})
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatalf("shred: %v", err)
	}
	cfg := xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)}
	if mutate != nil {
		mutate(&cfg)
	}
	return xmlsql.NewPlannerWith(s, cfg), store
}

// countRows runs query through the planner and returns the row count.
func countRows(t *testing.T, p *xmlsql.Planner, query string) int {
	t.Helper()
	res, err := p.Exec(context.Background(), query)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	return len(res.Rows)
}

// TestPlannerUpdateAppliesAndServes applies an insert batch through the
// planner and checks the new data is served, the footprint is scoped, and the
// write counters move.
func TestPlannerUpdateAppliesAndServes(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, nil)
	const q = "//Item/InCategory/Category"
	before := countRows(t, p, q)

	res, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>brand-new</Category></InCategory>",
	}}})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := res.Touched.Relations(); len(got) != 1 || got[0] != "InCat" {
		t.Fatalf("touched relations = %v, want [InCat]", got)
	}
	if !res.Audit.Clean() {
		t.Fatalf("post-apply audit dirty: %+v", res.Audit.Violations)
	}
	after := countRows(t, p, q)
	if after != before+4 { // 4 Africa items, one new InCategory each
		t.Fatalf("category rows %d -> %d, want +4", before, after)
	}
	st := p.Stats()
	if st.Updates != 1 || st.UpdateRejects != 0 {
		t.Fatalf("counters = %d applied / %d rejected, want 1/0", st.Updates, st.UpdateRejects)
	}
}

// TestPlannerUpdateRejectionIsCountedAndAtomic sends an invalid batch and
// checks nothing is served differently and the reject counter moves.
func TestPlannerUpdateRejectionIsCountedAndAtomic(t *testing.T) {
	ctx := context.Background()
	p, store := newUpdatePlanner(t, nil)
	const q = "//Item/InCategory/Category"
	before := countRows(t, p, q)
	dumpBefore := store.Dump()

	_, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op: xmlsql.UpdateInsert, Path: "//Item", XML: "<Bogus/>",
	}}})
	var ue *xmlsql.UpdateError
	if !errors.As(err, &ue) || ue.Kind != xmlsql.UpdateErrConform {
		t.Fatalf("err = %v, want UpdateError{conform}", err)
	}
	if store.Dump() != dumpBefore {
		t.Fatal("rejected batch modified the store")
	}
	if got := countRows(t, p, q); got != before {
		t.Fatalf("rows changed %d -> %d after rejected batch", before, got)
	}
	st := p.Stats()
	if st.Updates != 0 || st.UpdateRejects != 1 {
		t.Fatalf("counters = %d applied / %d rejected, want 0/1", st.Updates, st.UpdateRejects)
	}
}

// servesValue reports whether query's answer contains the string value.
func servesValue(t *testing.T, p *xmlsql.Planner, query, value string) bool {
	t.Helper()
	res, err := p.Exec(context.Background(), query)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	for _, row := range res.Rows {
		for _, v := range row {
			if v.Identical(relational.String(value)) {
				return true
			}
		}
	}
	return false
}

// TestPlannerUpdateScopedInvalidation pins what a write means for cached
// plans on the plain (non-adaptive) path: nothing. A translation does not
// depend on rows, so after a valid batch both the query over the written
// relation and the one over untouched relations keep their cache entries —
// and the touched query's answer contains the written element.
func TestPlannerUpdateScopedInvalidation(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, nil)
	const qTouched = "//Item/InCategory/Category" // reads InCat
	const qUntouched = "/Site"                    // reads Site only

	// Warm both plans, then confirm they are hot: a second round adds no
	// misses.
	countRows(t, p, qTouched)
	countRows(t, p, qUntouched)
	m0 := p.Stats().Misses
	countRows(t, p, qTouched)
	countRows(t, p, qUntouched)
	if m := p.Stats().Misses; m != m0 {
		t.Fatalf("warm queries missed the cache (%d -> %d misses)", m0, m)
	}

	// Write to InCat only.
	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Asia/Item",
		XML:  "<InCategory><Category>post-write</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update: %v", err)
	}

	countRows(t, p, qUntouched)
	if m := p.Stats().Misses; m != m0 {
		t.Fatalf("untouched query re-planned after unrelated write (%d -> %d misses)", m0, m)
	}
	if !servesValue(t, p, qTouched, "post-write") {
		t.Fatal("touched query's answer does not contain the written element")
	}
	if m := p.Stats().Misses; m != m0 {
		t.Fatalf("touched query re-translated after a write (%d -> %d misses); translations do not depend on rows", m0, m)
	}
}

// TestPlannerUpdateScopedInvalidationAdaptive pins the same on the adaptive
// path, where only the *decision* depends on data: a write to InCat re-runs
// the chooser exactly once for the InCat-reading query (its relation's
// statistics fingerprint moved) and not at all for the Site-only query, no
// cache entry is lost, and the write costs no statistics rescan.
func TestPlannerUpdateScopedInvalidationAdaptive(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, func(cfg *xmlsql.PlannerConfig) {
		cfg.Translate.Adaptive = true
	})
	const qTouched = "//Item/InCategory/Category"
	const qUntouched = "/Site"
	decision := func(q string) *xmlsql.PlanDecision {
		t.Helper()
		ex, err := p.Explain(ctx, q)
		if err != nil {
			t.Fatalf("explain %q: %v", q, err)
		}
		return ex.Decision
	}

	countRows(t, p, qTouched)
	countRows(t, p, qUntouched)
	decTouched, decUntouched := decision(qTouched), decision(qUntouched)
	st0 := p.Stats()
	if st0.StatsCollects != 1 || st0.DecisionRefreshes != 0 {
		t.Fatalf("after warm-up: %d collects, %d decision refreshes, want 1 and 0", st0.StatsCollects, st0.DecisionRefreshes)
	}

	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Europe/Item",
		XML:  "<InCategory><Category>adaptive-write</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update: %v", err)
	}

	countRows(t, p, qUntouched)
	if got := decision(qUntouched); got != decUntouched {
		t.Fatal("untouched adaptive query's decision was re-made after an unrelated write")
	}
	if st := p.Stats(); st.Misses != st0.Misses || st.DecisionRefreshes != 0 {
		t.Fatalf("untouched adaptive query: misses %d -> %d, decision refreshes %d, want no movement",
			st0.Misses, st.Misses, st.DecisionRefreshes)
	}
	if !servesValue(t, p, qTouched, "adaptive-write") {
		t.Fatal("touched adaptive query's answer does not contain the written element")
	}
	countRows(t, p, qTouched)
	if got := decision(qTouched); got == decTouched {
		t.Fatal("touched adaptive query kept a decision made against pre-write statistics")
	}
	st := p.Stats()
	if st.Misses != st0.Misses {
		t.Fatalf("touched adaptive query re-translated after a write (%d -> %d misses)", st0.Misses, st.Misses)
	}
	if st.DecisionRefreshes != 1 {
		t.Fatalf("DecisionRefreshes = %d after one write to the touched query's relation, want 1", st.DecisionRefreshes)
	}
	if st.StatsCollects != 1 {
		t.Fatalf("StatsCollects = %d after an Update, want 1 (statistics follow the commit)", st.StatsCollects)
	}
}

// TestPlannerUpdateTrustPromotion checks the incremental promotion rule: a
// verified instance stays verified across a clean batch without a global
// re-audit, and updates are still accepted (as the repair vector) on a
// violated instance.
func TestPlannerUpdateTrustPromotion(t *testing.T) {
	ctx := context.Background()
	p, _ := newUpdatePlanner(t, nil)
	if _, err := p.Audit(ctx); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if got := p.TrustState(); got != xmlsql.TrustVerified {
		t.Fatalf("trust after clean audit = %v", got)
	}
	audits := p.Stats().Audits

	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>still-clean</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := p.TrustState(); got != xmlsql.TrustVerified {
		t.Fatalf("trust after clean batch = %v, want TrustVerified", got)
	}
	if got := p.Stats().Audits; got != audits {
		t.Fatalf("full audits ran during update (%d -> %d); promotion must be incremental", audits, got)
	}

	// A violated instance still accepts valid updates.
	p.SetTrustState(xmlsql.TrustViolated)
	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Asia/Item",
		XML:  "<InCategory><Category>repairing</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update on violated instance: %v", err)
	}
	// The clean neighborhood does not clear the global verdict.
	if got := p.TrustState(); got != xmlsql.TrustViolated {
		t.Fatalf("trust after batch on violated instance = %v, want TrustViolated", got)
	}
}

// TestPlannerUpdateThroughResilientBackend routes updates through a resilient
// wrapper: reads retry through the wrapper, DML unwraps to the primary, and
// the batch applies.
func TestPlannerUpdateThroughResilientBackend(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 3, CategoriesPerItem: 1, NumCategories: 5, Seed: 3,
	})
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatalf("shred: %v", err)
	}
	rb := xmlsql.NewResilientBackend(xmlsql.NewMemBackendOn(store), xmlsql.ResilientOptions{})
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: rb})

	const q = "//Item/InCategory/Category"
	before := countRows(t, p, q)
	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>via-resilient</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update through resilient backend: %v", err)
	}
	if got := countRows(t, p, q); got != before+3 {
		t.Fatalf("category rows %d -> %d, want +3", before, got)
	}
}
