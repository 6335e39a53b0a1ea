package xmlsql_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xmlsql"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
)

// corruptedXMark returns an XMark store with one orphan InCat tuple (its
// dangling parentid and NULL columns make pruned Q1 answers wrong: the
// baseline joins InCat to Item and excludes it, the pruned single-table scan
// does not), plus the pruned and baseline Q1 answers on that store.
func corruptedXMark(t *testing.T) (*xmlsql.Schema, *xmlsql.Store, *xmlsql.Result, *xmlsql.Result) {
	t.Helper()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, workloads.GenerateXMark(workloads.DefaultXMarkConfig())); err != nil {
		t.Fatal(err)
	}
	if err := shred.InjectOrphan(s, store, "InCat", 987654321); err != nil {
		t.Fatal(err)
	}
	q := xmlsql.MustParseQuery(workloads.QueryQ1)
	naive, err := xmlsql.TranslateNaive(s, q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := xmlsql.Translate(s, q)
	if err != nil {
		t.Fatal(err)
	}
	prunedRes, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truth.MultisetEqual(prunedRes) {
		t.Fatal("corruption did not make pruned and baseline answers diverge")
	}
	return s, store, truth, prunedRes
}

func TestPlannerTrustLifecycle(t *testing.T) {
	ctx := context.Background()
	s, store, truth, prunedRes := corruptedXMark(t)
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})

	if st := p.TrustState(); st != xmlsql.TrustUnverified {
		t.Fatalf("fresh planner trust = %v", st)
	}
	// Optimistic default: unaudited instances serve pruned plans — and on
	// this dirty instance that means the wrong answer.
	got, err := p.Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MultisetEqual(prunedRes) {
		t.Fatalf("unverified optimistic Exec did not serve the pruned plan")
	}

	// The audit finds the orphan and flips the planner to safe mode.
	rep, err := p.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("audit missed the orphan:\n%s", rep)
	}
	p2s := rep.ByProperty(xmlsql.PropertyP2)
	if len(p2s) != 1 || p2s[0].Relation != "InCat" {
		t.Fatalf("want one P2 violation on InCat, got:\n%s", rep)
	}
	if p.TrustState() != xmlsql.TrustViolated {
		t.Fatalf("trust after dirty audit = %v", p.TrustState())
	}
	if p.LastAudit() != rep {
		t.Error("LastAudit does not return the installed report")
	}

	// Safe mode: Exec transparently re-plans with the baseline translation
	// and matches the ground truth; Plan still exposes the pruned SQL.
	got, err = p.Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MultisetEqual(truth) {
		t.Fatalf("safe-mode Exec diverged from baseline ground truth")
	}
	tr, err := p.Plan(workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fallback {
		t.Error("Plan should still expose the pruned translation")
	}
	st := p.Stats()
	if st.Audits != 1 || st.ViolationsFound != 1 || st.SafeModeServes != 1 || st.Trust != xmlsql.TrustViolated {
		t.Errorf("stats = %+v", st)
	}

	// Repair (quarantine the orphan), re-audit: pruned plans come back.
	if _, _, err := xmlsql.QuarantineDirty(store, s, 0); err != nil {
		t.Fatal(err)
	}
	rep, err = p.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || p.TrustState() != xmlsql.TrustVerified {
		t.Fatalf("post-repair audit: clean=%v trust=%v", rep.Clean(), p.TrustState())
	}
	cleanTruth, err := xmlsql.Eval(s, store, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = p.Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MultisetEqual(cleanTruth) {
		t.Fatalf("verified Exec diverged from pruned answers on the repaired instance")
	}
	if st := p.Stats(); st.SafeModeServes != 1 {
		t.Errorf("SafeModeServes grew after re-verification: %+v", st)
	}
}

func TestPlannerTrustStrictPolicy(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, workloads.GenerateXMark(workloads.DefaultXMarkConfig())); err != nil {
		t.Fatal(err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{
		Backend: xmlsql.NewMemBackendOn(store),
		Trust:   xmlsql.TrustStrict,
	})
	// Strict: even a clean-but-unverified instance gets safe-mode serving.
	if _, err := p.Exec(ctx, workloads.QueryQ1); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SafeModeServes != 1 {
		t.Fatalf("strict unverified Exec did not degrade: %+v", st)
	}
	if rep, err := p.Audit(ctx); err != nil || !rep.Clean() {
		t.Fatalf("audit: %v %v", rep, err)
	}
	if _, err := p.Exec(ctx, workloads.QueryQ1); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SafeModeServes != 1 || st.Trust != xmlsql.TrustVerified {
		t.Fatalf("strict verified Exec still degraded: %+v", st)
	}
}

func TestPlannerTrustResetOnSetSchema(t *testing.T) {
	s, store, _, _ := corruptedXMark(t)
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})
	if _, err := p.Audit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.TrustState() != xmlsql.TrustViolated {
		t.Fatalf("trust = %v", p.TrustState())
	}
	p.SetSchema(workloads.XMarkFull())
	if p.TrustState() != xmlsql.TrustUnverified || p.LastAudit() != nil {
		t.Fatalf("SetSchema did not reset trust: %v %v", p.TrustState(), p.LastAudit())
	}
}

// TestPlannerTrustConcurrentReaudit drives Exec from many goroutines while
// another goroutine flips the trust verdict back and forth, as a background
// re-audit would. Every answer must equal either the pruned or the baseline
// result — never a torn plan — and the run must be race-clean.
func TestPlannerTrustConcurrentReaudit(t *testing.T) {
	ctx := context.Background()
	s, store, truth, prunedRes := corruptedXMark(t)
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})

	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				p.SetTrustState(xmlsql.TrustViolated)
			} else {
				p.SetTrustState(xmlsql.TrustVerified)
			}
		}
	}()
	errs := make(chan error, goroutines)
	var workers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < iters; i++ {
				res, err := p.Exec(ctx, workloads.QueryQ1)
				if err != nil {
					errs <- err
					return
				}
				if !res.MultisetEqual(truth) && !res.MultisetEqual(prunedRes) {
					errs <- fmt.Errorf("Exec answer matches neither the pruned nor the baseline result")
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
