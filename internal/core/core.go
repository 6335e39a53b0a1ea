package core

import (
	"errors"
	"fmt"

	"xmlsql/internal/pathid"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
)

// Options tune the lossless-constraint-aware translator; the zero value is
// the paper's algorithm.
type Options struct {
	// DisableEdgeAnnotOpt turns off the §4.3 edge-annotation optimization
	// (ablation): suffixes then always include the parent join.
	DisableEdgeAnnotOpt bool
	// CombineIdenticalOnly restricts combinability to byte-identical
	// templates (ablation of §4.4's disjunctive merging).
	CombineIdenticalOnly bool
	// NoFallback makes translation fail instead of silently reverting to
	// the baseline when safe suffixes cannot be established.
	NoFallback bool
	// Adaptive is a compile-only shim: it selects nothing. Plans are chosen
	// by rule (translate.ChoosePlan), so there is no cost-based mode to turn
	// on; the field stays because the repository benchmark still sets it.
	Adaptive bool
}

// Result is a completed translation.
type Result struct {
	// Query is the generated SQL.
	Query *sqlast.Query
	// Fallback reports that pruning was abandoned and Query is the baseline
	// translation. This never happens for the paper's mappings; it guards
	// adversarial schemas whose suffixes cannot be disambiguated.
	Fallback bool
	// Classes describe the pruned PathSet (empty when Fallback).
	Classes []PrunedClass
	// Baseline is a compile-only shim: it is always nil. It stays because
	// the repository benchmark still reads it.
	Baseline *sqlast.Query
}

// Translate converts the PathId output into SQL, exploiting the "lossless
// from XML" constraint with the paper's default options.
func Translate(g *pathid.Graph) (*Result, error) { return TranslateOpts(g, Options{}) }

// TranslateOpts converts the PathId output into SQL under explicit options.
//
// The algorithm is Figure 3: the PathId result S_CP is pruned — every
// accepting node's root-to-leaf join chain is shortened to the lowest suffix
// whose SQL can only return result tuples (Figures 4 and 8) — and the pruned
// PathSet is partitioned into combinability classes, each emitted as a
// single SELECT or CTE program.
func TranslateOpts(g *pathid.Graph, opts Options) (*Result, error) {
	if g.Empty() {
		return &Result{Query: &sqlast.Query{}}, nil
	}
	w := &walker{}
	pr := &pruner{
		schema:     &schemaSide{p: g.Product(), ends: map[[2]string][]int{}},
		useLeadOpt: !opts.DisableEdgeAnnotOpt,
	}
	if opts.CombineIdenticalOnly {
		pr.combineMode = combineIdenticalOnly
	}
	for _, a := range g.Accepts() {
		it, err := newItem(g, a, w)
		if err != nil {
			return nil, err
		}
		pr.items = append(pr.items, it)
	}

	query, classes, err := pr.translate()
	if err != nil {
		if !errors.Is(err, errCannotPrune) {
			return nil, err
		}
		if opts.NoFallback {
			return nil, fmt.Errorf("core: %w", err)
		}
		naive, nerr := translate.Naive(g)
		if nerr != nil {
			return nil, nerr
		}
		return &Result{Query: naive, Fallback: true}, nil
	}
	return &Result{Query: query, Classes: classes}, nil
}

func (pr *pruner) translate() (*sqlast.Query, []PrunedClass, error) {
	if err := pr.run(); err != nil {
		return nil, nil, err
	}
	return pr.generate()
}
