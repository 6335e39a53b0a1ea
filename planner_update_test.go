package xmlsql_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/bench"
	"xmlsql/internal/integrity"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
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
	// The write resolves its path through the cache: one miss, its own.
	if m := p.Stats().Misses; m != m0+1 {
		t.Fatalf("the write's own path: %d -> %d misses, want one", m0, m)
	}
	m0++

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

// TestIncrementalAuditScope pins the incremental audit's scope as a count:
// on XMark at the harness's default scale, after 16 batches that each
// insert one InCategory under every Africa item, the audit of the last
// batch's touched tuples covers exactly 401 tuples, at most a fifth of what
// the full audit of the same store covers, and both verdicts are clean.
func TestIncrementalAuditScope(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: bench.DefaultScale().ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatalf("shred: %v", err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})
	var touched xmlsql.TouchedTuples
	for i := 0; i < 16; i++ {
		res, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
			Op:   xmlsql.UpdateInsert,
			Path: "/Site/Regions/Africa/Item",
			XML:  fmt.Sprintf("<InCategory><Category>scope-%d</Category></InCategory>", i),
		}}})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		touched = res.Touched
	}

	inc, err := integrity.AuditIncrementalOpts(ctx, integrity.StoreProbe(store), s, touched, integrity.Options{})
	if err != nil {
		t.Fatalf("incremental audit: %v", err)
	}
	full, err := integrity.Audit(ctx, integrity.StoreSource(store), s)
	if err != nil {
		t.Fatalf("full audit: %v", err)
	}
	if !inc.Clean() || !full.Clean() {
		t.Fatalf("verdicts: incremental clean=%v, full clean=%v", inc.Clean(), full.Clean())
	}
	if inc.Tuples != 401 {
		t.Errorf("incremental audit covered %d tuples, want 401", inc.Tuples)
	}
	if 5*inc.Tuples > full.Tuples {
		t.Errorf("incremental audit covered %d tuples, more than a fifth of the full audit's %d", inc.Tuples, full.Tuples)
	}
}

// TestPlannerUpdateScopedInvalidationAdaptive pins the same on an Adaptive
// planner: a write to InCat re-makes no decision (the plan rule reads no
// data) and loses no cache entry, and the touched query serves the written
// element from its cached plan.
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

	if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Europe/Item",
		XML:  "<InCategory><Category>adaptive-write</Category></InCategory>",
	}}}); err != nil {
		t.Fatalf("update: %v", err)
	}

	st0.Misses++ // the write's own path, resolved through the cache

	countRows(t, p, qUntouched)
	if got := decision(qUntouched); got != decUntouched {
		t.Fatal("untouched adaptive query's decision was re-made after an unrelated write")
	}
	if st := p.Stats(); st.Misses != st0.Misses {
		t.Fatalf("untouched adaptive query: misses %d -> %d, want no movement", st0.Misses, st.Misses)
	}
	if !servesValue(t, p, qTouched, "adaptive-write") {
		t.Fatal("touched adaptive query's answer does not contain the written element")
	}
	countRows(t, p, qTouched)
	if got := decision(qTouched); got != decTouched {
		t.Fatal("touched adaptive query's decision was re-made after a write")
	}
	if st := p.Stats(); st.Misses != st0.Misses {
		t.Fatalf("touched adaptive query re-translated after a write (%d -> %d misses)", st0.Misses, st.Misses)
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

// TestPlannerUpdateOverDBBackend drives Planner.Update over a database
// backend: targets resolve and the audits probe through SQL, the DML applies
// in one database transaction, and the batch is visible to Exec.
func TestPlannerUpdateOverDBBackend(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 3, CategoriesPerItem: 1, NumCategories: 5, Seed: 3,
	})
	db := xmlsql.NewDBBackend(fakedb.Open(), xmlsql.DialectSQLite)
	t.Cleanup(func() { db.Close() })
	if err := db.EnsureSchema(s); err != nil {
		t.Fatalf("EnsureSchema: %v", err)
	}
	if _, err := db.Load(s, doc); err != nil {
		t.Fatalf("Load: %v", err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: db})

	const q = "//Item/InCategory/Category"
	before := countRows(t, p, q)
	res, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>via-db</Category></InCategory>",
	}}})
	if err != nil {
		t.Fatalf("update over the DB backend: %v", err)
	}
	if !res.Audit.Clean() {
		t.Fatalf("post-apply audit dirty: %v", res.Audit)
	}
	if got := countRows(t, p, q); got != before+3 {
		t.Fatalf("category rows %d -> %d, want +3", before, got)
	}
}

// errAuditProbe is the fault auditFaultBackend's probe injects.
var errAuditProbe = errors.New("audit probe fault")

// auditFaultBackend serves a Mem store whose audit probe fails on its first
// call after a batch's DML commits: the post-apply audit cannot complete,
// though the batch is in the store.
type auditFaultBackend struct {
	*backend.Mem
	armed atomic.Bool
}

func (b *auditFaultBackend) ApplyDML(ctx context.Context, stmts []sqlast.DMLStmt) error {
	if err := b.Mem.ApplyDML(ctx, stmts); err != nil {
		return err
	}
	b.armed.Store(true)
	return nil
}

func (b *auditFaultBackend) IntegrityProbe() (integrity.Probe, error) {
	return auditFaultProbe{b, integrity.StoreProbe(b.Store())}, nil
}

type auditFaultProbe struct {
	b *auditFaultBackend
	integrity.Probe
}

func (p auditFaultProbe) FetchByID(ctx context.Context, rel string, ids []int64) ([]relational.Row, error) {
	if p.b.armed.CompareAndSwap(true, false) {
		return nil, errAuditProbe
	}
	return p.Probe.FetchByID(ctx, rel, ids)
}

func (p auditFaultProbe) FetchByParent(ctx context.Context, rel string, parents []int64) ([]relational.Row, error) {
	if p.b.armed.CompareAndSwap(true, false) {
		return nil, errAuditProbe
	}
	return p.Probe.FetchByParent(ctx, rel, parents)
}

// TestPlannerUpdateCommittedButUnaudited faults the post-apply audit of a
// committed batch. The batch is applied, so Update returns its result and
// counts it as an update, not a reject; the audit's failure is on the result,
// and a verified planner drops to unverified, since nothing checked where
// the batch wrote. Reporting the batch as failed would invite a client to
// re-send an insert that is already in the store.
func TestPlannerUpdateCommittedButUnaudited(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 3, CategoriesPerItem: 1, NumCategories: 5, Seed: 3,
	})
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatalf("shred: %v", err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: &auditFaultBackend{Mem: backend.NewMemOn(store)}})
	if rep, err := p.Audit(ctx); err != nil || !rep.Clean() {
		t.Fatalf("initial audit: %v %v", rep, err)
	}

	const q = "//Item/InCategory/Category"
	before := countRows(t, p, q)
	res, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>unaudited</Category></InCategory>",
	}}})
	if err != nil {
		t.Fatalf("a committed batch was reported as failed: %v", err)
	}
	if !errors.Is(res.AuditErr, errAuditProbe) || res.Audit != nil {
		t.Fatalf("result audit = %v, audit err = %v; want no audit and the probe fault", res.Audit, res.AuditErr)
	}
	if got := countRows(t, p, q); got != before+3 {
		t.Fatalf("category rows %d -> %d, want +3: the batch is in the store", before, got)
	}
	if got := p.TrustState(); got != xmlsql.TrustUnverified {
		t.Fatalf("trust after an unaudited batch = %v, want TrustUnverified", got)
	}
	if st := p.Stats(); st.Updates != 1 || st.UpdateRejects != 0 {
		t.Fatalf("updates=%d rejects=%d, want 1 and 0", st.Updates, st.UpdateRejects)
	}
}

// TestPlannerUpdateFollowsTrustRule pins which elements a delete addresses on
// a dirty instance: an orphan InCat tuple carries the deleted category. A
// violated planner resolves targets by the baseline, which joins down from
// the root and never reaches the orphan, so the orphan stays. An optimistic
// planner that has not audited resolves by the pruned scan of InCat, so the
// orphan goes. Either way the delete removes exactly what Exec of the same
// path returns in that trust state.
func TestPlannerUpdateFollowsTrustRule(t *testing.T) {
	const path = "//Item/InCategory[Category='doomed']"
	for _, violated := range []bool{true, false} {
		ctx := context.Background()
		p, store := newUpdatePlanner(t, nil)
		if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
			Op: xmlsql.UpdateInsert, Path: "/Site/Regions/Africa/Item",
			XML: "<InCategory><Category>doomed</Category></InCategory>",
		}}}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := xmlsql.InjectOrphan(p.Schema(), store, "InCat", 987654); err != nil {
			t.Fatal(err)
		}
		incat := store.Table("InCat")
		pi, ci := incat.Schema().ColumnIndex("parentid"), incat.Schema().ColumnIndex("category")
		orphan := func(r relational.Row) bool { return r[pi].Equal(relational.Int(987654)) }
		if _, err := incat.UpdateWhere(orphan, func(r relational.Row) relational.Row {
			r[ci] = relational.String("doomed")
			return r
		}); err != nil {
			t.Fatal(err)
		}
		if violated {
			p.SetTrustState(xmlsql.TrustViolated)
		} else if p.TrustState() != xmlsql.TrustUnverified {
			t.Fatalf("trust = %v, want TrustUnverified", p.TrustState())
		}

		served, err := p.Exec(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
			Op: xmlsql.UpdateDelete, Path: path}}})
		if err != nil {
			t.Fatalf("violated=%v: delete: %v", violated, err)
		}
		want := map[int64]bool{}
		for _, row := range served.Rows {
			want[row[0].AsInt()] = true
		}
		got := map[int64]bool{}
		for _, r := range res.Touched.Deleted {
			got[r.ID] = true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("violated=%v: deleted %v, Exec served %v", violated, got, want)
		}
		left := 0
		for _, r := range incat.Rows() {
			if orphan(r) {
				left++
			}
		}
		if wantLeft := map[bool]int{true: 1, false: 0}[violated]; left != wantLeft {
			t.Errorf("violated=%v: %d orphans left, want %d", violated, left, wantLeft)
		}
	}
}

// TestPlannerUpdateConcurrentPlannersShareSchema runs updates and audits on
// two planners that serve one *Schema over separate stores at once. The
// auditor's tables and the derived relations are built once per schema and
// then only read; under -race this shows the sharing is safe.
func TestPlannerUpdateConcurrentPlannersShareSchema(t *testing.T) {
	s := workloads.XMark()
	var planners []*xmlsql.Planner
	for i := 0; i < 2; i++ {
		store := xmlsql.NewStore()
		doc := workloads.GenerateXMark(workloads.XMarkConfig{ItemsPerContinent: 2, CategoriesPerItem: 1, NumCategories: 4, Seed: int64(i + 1)})
		if _, err := xmlsql.Shred(s, store, doc); err != nil {
			t.Fatal(err)
		}
		planners = append(planners, xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)}))
	}
	errs := make(chan error, 2*len(planners))
	for i, p := range planners {
		for w := 0; w < 2; w++ {
			go func(p *xmlsql.Planner, tag string) {
				ctx := context.Background()
				for k := 0; k < 10; k++ {
					value := fmt.Sprintf("%s-%d", tag, k)
					for _, m := range []xmlsql.UpdateMutation{
						{Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-0']", XML: "<InCategory><Category>" + value + "</Category></InCategory>"},
						{Op: xmlsql.UpdateDelete, Path: "//Item/InCategory[Category='" + value + "']"},
					} {
						if _, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{m}}); err != nil {
							errs <- err
							return
						}
					}
					if rep, err := p.Audit(ctx); err != nil || !rep.Clean() {
						errs <- fmt.Errorf("audit: %v %v", rep, err)
						return
					}
				}
				errs <- nil
			}(p, fmt.Sprintf("p%d-w%d", i, w))
		}
	}
	for i := 0; i < 2*len(planners); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
