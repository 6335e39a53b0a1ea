package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlsql"
	"xmlsql/internal/integrity"
	"xmlsql/internal/workloads"
)

// UpdateComparison measures the transactional update path on one workload:
// batch apply cost (plan + validate + apply + incremental audit), the
// incremental audit against a full instance scan over the same store, and
// the serving consequence of a write — none for cached plans: the touched
// hot query serves the written rows from the plan it already had, and a query
// over untouched relations keeps its plan too. Verified means every batch
// applied with a clean audit, the incremental and full verdicts agreed, row
// counts moved exactly as the batches dictate, and neither query lost its
// cache entry.
type UpdateComparison struct {
	Workload string `json:"workload"`
	Tuples   int    `json:"tuples"`

	// Batch throughput: BatchNs is the mean wall time of one applied batch
	// end to end; WrittenPerBatch is its tuple footprint.
	Batches         int     `json:"batches"`
	WrittenPerBatch int     `json:"written_per_batch"`
	BatchNs         float64 `json:"batch_ns"`
	BatchesPerSec   float64 `json:"batches_per_sec"`

	// Audit scoping: the incremental audit of one batch's neighborhood vs
	// the full audit of the whole instance, on the same post-write store.
	IncrementalAuditNs float64 `json:"incremental_audit_ns"`
	FullAuditNs        float64 `json:"full_audit_ns"`
	AuditSpeedup       float64 `json:"audit_speedup"`

	// Post-write serving: the touched query's hot latency before the write,
	// its first latency right after, and its hot latency after that.
	// UntouchedKeptHot reports whether a hot query over disjoint relations
	// survived the write without re-planning.
	HotNs            float64 `json:"hot_ns"`
	RecoveryNs       float64 `json:"recovery_ns"`
	RecoveredHotNs   float64 `json:"recovered_hot_ns"`
	UntouchedKeptHot bool    `json:"untouched_kept_hot"`

	Verified bool `json:"verified"`
}

// updateBenchBatch is the measured write: one fresh InCategory under every
// Africa item — a batch whose footprint is exactly the InCat relation.
func updateBenchBatch(serial int) xmlsql.UpdateBatch {
	return xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  fmt.Sprintf("<InCategory><Category>bench-%d</Category></InCategory>", serial),
	}}}
}

// RunUpdates measures the update path on the XMark workload at the given
// scale.
func RunUpdates(sc Scale) ([]*UpdateComparison, error) {
	ctx := context.Background()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		return nil, fmt.Errorf("updates: shred: %w", err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: xmlsql.NewMemBackendOn(store)})
	cmp := &UpdateComparison{Workload: "xmark", Verified: true}

	// Warm the two serving queries: qTouched reads the relation the batches
	// write; qUntouched reads only the Site root.
	const qTouched = "//Item/InCategory/Category"
	const qUntouched = "/Site"
	for i := 0; i < 2; i++ {
		for _, q := range []string{qTouched, qUntouched} {
			if _, err := p.Exec(ctx, q); err != nil {
				return nil, fmt.Errorf("updates: warm %s: %w", q, err)
			}
		}
	}
	cmp.HotNs = measureFn(func() error {
		_, err := p.Exec(ctx, qTouched)
		return err
	})
	preRows, err := p.Exec(ctx, qTouched)
	if err != nil {
		return nil, err
	}

	// Throughput: a bounded run of applied batches (each grows the store, so
	// the loop is counted, not time-boxed).
	const batches = 16
	var touched xmlsql.TouchedTuples
	start := time.Now()
	for i := 0; i < batches; i++ {
		res, err := p.Update(ctx, updateBenchBatch(i))
		if err != nil {
			return nil, fmt.Errorf("updates: batch %d: %w", i, err)
		}
		if !res.Audit.Clean() {
			cmp.Verified = false
		}
		cmp.WrittenPerBatch = len(res.Touched.Written)
		touched = res.Touched
	}
	elapsed := time.Since(start)
	cmp.Batches = batches
	cmp.BatchNs = float64(elapsed.Nanoseconds()) / batches
	if elapsed > 0 {
		cmp.BatchesPerSec = batches / elapsed.Seconds()
	}
	cmp.Tuples = store.TotalRows()

	// Every batch inserted one InCategory (an InCat and a Cat-value tuple
	// pair per Africa item, of which the Category value rows serve) under
	// each Africa item.
	postRows, err := p.Exec(ctx, qTouched)
	if err != nil {
		return nil, err
	}
	perBatch := sc.ItemsPerContinent
	if len(postRows.Rows) != len(preRows.Rows)+batches*perBatch {
		cmp.Verified = false
	}

	// Incremental vs full audit over the same post-write instance. The
	// incremental side re-checks one batch's neighborhood — what
	// Planner.Update actually runs after a write.
	probe := integrity.StoreProbe(store)
	var incRep, fullRep *integrity.Report
	cmp.IncrementalAuditNs = measureFn(func() error {
		rep, err := integrity.AuditIncrementalOpts(ctx, probe, s, touched, integrity.Options{})
		incRep = rep
		return err
	})
	cmp.FullAuditNs = measureFn(func() error {
		rep, err := integrity.Audit(ctx, integrity.StoreSource(store), s)
		fullRep = rep
		return err
	})
	if cmp.IncrementalAuditNs > 0 {
		cmp.AuditSpeedup = cmp.FullAuditNs / cmp.IncrementalAuditNs
	}
	if incRep == nil || fullRep == nil || incRep.Clean() != fullRep.Clean() {
		cmp.Verified = false
	}

	// Post-write serving: re-warm, write once more, then take the touched
	// query's first latency and the steady hot latency after it. The first
	// answer must hold the batch's rows and must come from the cached plan;
	// the untouched query must keep its entry across the write too.
	for i := 0; i < 2; i++ {
		if _, err := p.Exec(ctx, qTouched); err != nil {
			return nil, err
		}
	}
	preMisses := p.Stats().Misses
	if _, err := p.Update(ctx, updateBenchBatch(batches)); err != nil {
		return nil, fmt.Errorf("updates: recovery batch: %w", err)
	}
	one := time.Now()
	firstRows, err := p.Exec(ctx, qTouched)
	if err != nil {
		return nil, err
	}
	cmp.RecoveryNs = float64(time.Since(one).Nanoseconds())
	if len(firstRows.Rows) != len(postRows.Rows)+perBatch || p.Stats().Misses != preMisses {
		cmp.Verified = false // the write is not served, or cost a re-translation
	}
	cmp.RecoveredHotNs = measureFn(func() error {
		_, err := p.Exec(ctx, qTouched)
		return err
	})
	misses := p.Stats().Misses
	if _, err := p.Exec(ctx, qUntouched); err != nil {
		return nil, err
	}
	cmp.UntouchedKeptHot = p.Stats().Misses == misses
	if !cmp.UntouchedKeptHot {
		cmp.Verified = false
	}
	return []*UpdateComparison{cmp}, nil
}

// UpdatesGate returns one error per gate violation: an unverified run, or an
// incremental audit that is not at least minAuditSpeedup times faster than
// the full scan.
func UpdatesGate(cmps []*UpdateComparison, minAuditSpeedup float64) []error {
	var errs []error
	for _, c := range cmps {
		if !c.Verified {
			errs = append(errs, fmt.Errorf("updates %s: verification failed", c.Workload))
		}
		if c.AuditSpeedup < minAuditSpeedup {
			errs = append(errs, fmt.Errorf("updates %s: incremental audit only %.1fx faster than full (gate %.1fx)",
				c.Workload, c.AuditSpeedup, minAuditSpeedup))
		}
	}
	return errs
}

// FormatUpdates renders the update table for the benchrunner's stdout report.
func FormatUpdates(cmps []*UpdateComparison) string {
	var b strings.Builder
	b.WriteString("Transactional updates: batch apply, scoped audit, post-write recovery\n")
	fmt.Fprintf(&b, "%-8s %8s %9s %9s %11s %11s %8s %9s %9s %10s %9s\n",
		"workload", "tuples", "batch", "batch/s", "incr-audit", "full-audit", "speedup", "hot", "recovery", "kept-hot", "verified")
	for _, c := range cmps {
		fmt.Fprintf(&b, "%-8s %8d %9s %9.1f %11s %11s %7.1fx %9s %9s %10v %9v\n",
			c.Workload, c.Tuples,
			time.Duration(c.BatchNs).Round(time.Microsecond), c.BatchesPerSec,
			time.Duration(c.IncrementalAuditNs).Round(time.Microsecond),
			time.Duration(c.FullAuditNs).Round(time.Microsecond),
			c.AuditSpeedup,
			time.Duration(c.HotNs).Round(time.Microsecond),
			time.Duration(c.RecoveryNs).Round(time.Microsecond),
			c.UntouchedKeptHot, c.Verified)
	}
	return b.String()
}
