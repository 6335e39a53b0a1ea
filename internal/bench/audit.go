package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
)

// AuditComparison is one workload's trip through the integrity sentinel:
// how long the clean audit of the shredded instance took, and — after
// injecting corruptions — how many violations the dirty audit pinned down
// and how many queries a trust-wired serving path would degrade to baseline
// (safe-mode) translations. Verified means the clean instance audited clean
// AND every injected corruption was detected.
type AuditComparison struct {
	Workload     string  `json:"workload"`
	Tuples       int     `json:"tuples"`
	CleanAuditNs float64 `json:"clean_audit_ns"`
	DirtyAuditNs float64 `json:"dirty_audit_ns"`
	Injected     int     `json:"corruptions_injected"`
	Violations   int     `json:"violations_found"`
	Degradations int     `json:"safe_mode_degradations"`
	Verified     bool    `json:"verified"`
}

// auditWorkloads: the chaos coverage plus xmarkfull (whose mandatory Cat.name
// column exercises the P3 leaf checks).
func auditWorkloads() []chaosWorkload {
	wls := chaosWorkloads()
	wls = append(wls, chaosWorkload{
		"xmarkfull",
		workloads.XMarkFull(),
		workloads.GenerateXMarkFull(workloads.DefaultXMarkConfig()),
		[]string{workloads.QueryQ1, "/Site/Categories/Category"},
	})
	return wls
}

// corruptForAudit injects one orphan tuple into the lexicographically first
// non-root relation of the store and returns how many corruptions were
// injected.
func corruptForAudit(s *schema.Schema, store *relational.Store) (int, error) {
	rootRel := s.RootNode().Relation
	for _, name := range store.TableNames() {
		if name == rootRel {
			continue
		}
		if err := shred.InjectOrphan(s, store, name, 1<<40); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return 0, fmt.Errorf("bench: no non-root relation to corrupt")
}

// RunAudit measures the integrity sentinel over every audit workload: a
// clean audit of the freshly shredded instance (must come back clean), then
// an audit of a deliberately corrupted copy (must detect every injected
// corruption), then the serving consequence — a trust-wired planner
// degrading each query of the dirty instance to the baseline translation.
func RunAudit() ([]*AuditComparison, error) {
	ctx := context.Background()
	var out []*AuditComparison
	for _, wl := range auditWorkloads() {
		cmp := &AuditComparison{Workload: wl.name, Verified: true}

		store := relational.NewStore()
		if _, err := shred.ShredAll(wl.schema, store, shred.Options{}, wl.doc); err != nil {
			return nil, fmt.Errorf("audit %s: shred: %w", wl.name, err)
		}
		cmp.Tuples = store.TotalRows()

		start := time.Now()
		rep, err := integrity.Audit(ctx, integrity.StoreSource(store), wl.schema)
		if err != nil {
			return nil, fmt.Errorf("audit %s: clean audit: %w", wl.name, err)
		}
		cmp.CleanAuditNs = float64(time.Since(start).Nanoseconds())
		if !rep.Clean() {
			cmp.Verified = false
		}

		injected, err := corruptForAudit(wl.schema, store)
		if err != nil {
			return nil, fmt.Errorf("audit %s: %w", wl.name, err)
		}
		cmp.Injected = injected

		start = time.Now()
		dirty, err := integrity.Audit(ctx, integrity.StoreSource(store), wl.schema)
		if err != nil {
			return nil, fmt.Errorf("audit %s: dirty audit: %w", wl.name, err)
		}
		cmp.DirtyAuditNs = float64(time.Since(start).Nanoseconds())
		cmp.Violations = dirty.Total
		if dirty.Total < injected {
			cmp.Verified = false
		}

		// Serving consequence: every query of the dirty instance degrades to
		// the baseline translation and still answers (correctness of those
		// answers is the corruption differential suite's job; here the
		// degradation count feeds the robustness trajectory).
		mem := backend.NewMemOn(store)
		for _, query := range wl.queries {
			qs, err := chaosTranslations(wl.schema, query)
			if err != nil {
				return nil, fmt.Errorf("audit %s: translate %s: %w", wl.name, query, err)
			}
			// qs[0] is the baseline translation — what a Violated planner serves.
			if _, err := mem.Execute(ctx, qs[0]); err != nil {
				return nil, fmt.Errorf("audit %s: safe-mode %s: %w", wl.name, query, err)
			}
			cmp.Degradations++
		}
		out = append(out, cmp)
	}
	return out, nil
}

// FormatAudit renders the audit table for the benchrunner's stdout report.
func FormatAudit(cmps []*AuditComparison) string {
	var b strings.Builder
	b.WriteString("Integrity sentinel: lossless-constraint audit and safe-mode degradation\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %9s %11s %13s %9s\n",
		"workload", "tuples", "clean-audit", "dirty-audit", "injected", "violations", "degradations", "verified")
	for _, c := range cmps {
		fmt.Fprintf(&b, "%-14s %8d %12s %12s %9d %11d %13d %9v\n",
			c.Workload, c.Tuples,
			time.Duration(c.CleanAuditNs).Round(time.Microsecond),
			time.Duration(c.DirtyAuditNs).Round(time.Microsecond),
			c.Injected, c.Violations, c.Degradations, c.Verified)
	}
	return b.String()
}
