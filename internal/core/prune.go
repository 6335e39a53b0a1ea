package core

import (
	"fmt"
	"slices"

	"xmlsql/internal/translate"
)

// pruner runs the two pruning loops of Figures 4 and 8 over the PathSet.
type pruner struct {
	items       []*item
	schema      *schemaSide
	useLeadOpt  bool
	combineMode combineMode
}

type combineMode uint8

const (
	// combineFull merges identical templates and OR-merges linear suffixes
	// with equal relation sequences — the paper's §4.4/§5.1 behaviour.
	combineFull combineMode = iota
	// combineIdenticalOnly merges only byte-identical templates (ablation:
	// no disjunctive merging; conflicts force longer suffixes instead).
	combineIdenticalOnly
)

// errCannotPrune signals that safe suffixes could not be established; the
// caller falls back to the baseline translation.
var errCannotPrune = fmt.Errorf("core: pruning could not establish safe suffixes")

func (pr *pruner) run() error {
	if err := pr.loopNonResultConflicts(); err != nil {
		return err
	}
	return pr.loopResultConflicts()
}

// needsGrowth implements the per-item conditions that force a longer suffix:
//
//  1. some suffix pattern conflicts with a schema path not in the query
//     result (Fig. 4/8, first loop);
//  2. two *distinct* suffix paths of the item conflict with each other —
//     an unanchored entry scan would then derive a tuple through both
//     routes, duplicating it (the recursive-schema analogue of Fig. 5);
//  3. an entry node also has a parent inside the region ("mixed entry"):
//     its scan branch would subsume its derived branch.
func (pr *pruner) needsGrowth(it *item) bool {
	sg, ends := it.stepGraph()
	nonResult := pr.schema.nonResultEnds(it.resultRel, it.resultCol) // builds pr.schema.sg if needed
	if overlaps(sg, pr.schema.sg, ends, nonResult, false) ||
		overlaps(sg, sg, ends, ends, true) {
		return true
	}
	for e := range it.entry {
		for _, pe := range it.g.Parents(e) {
			if it.nodes[pe.From] {
				return true // mixed entry
			}
		}
	}
	return false
}

// loopNonResultConflicts is the first while loop: grow every item until its
// SQL cannot return tuples of paths outside the query result (and cannot
// double-derive its own tuples).
func (pr *pruner) loopNonResultConflicts() error {
	limit := pr.growthLimit()
	for round := 0; ; round++ {
		if round > limit {
			return errCannotPrune
		}
		changed := false
		for _, it := range pr.items {
			if !pr.needsGrowth(it) {
				continue
			}
			if !it.grow(pr.useLeadOpt) {
				return errCannotPrune
			}
			changed = true
		}
		if !changed {
			return nil
		}
	}
}

// loopResultConflicts is the second while loop: two items whose suffix
// queries can overlap must be combinable (their results are then merged into
// a single SELECT or an identical template emitted once); otherwise the
// smaller one grows until the overlap disappears.
func (pr *pruner) loopResultConflicts() error {
	limit := pr.growthLimit()
	for round := 0; ; round++ {
		if round > limit {
			return errCannotPrune
		}
		changed := false
		for i := 0; i < len(pr.items); i++ {
			for j := i + 1; j < len(pr.items); j++ {
				p, q := pr.items[i], pr.items[j]
				if pr.combinable(p, q) {
					continue
				}
				if !pr.itemsConflict(p, q) {
					continue
				}
				smaller := p
				if len(q.nodes) < len(p.nodes) {
					smaller = q
				}
				if !smaller.grow(pr.useLeadOpt) {
					// The smaller is stuck; try the other one.
					other := p
					if smaller == p {
						other = q
					}
					if !other.grow(pr.useLeadOpt) {
						return errCannotPrune
					}
				}
				changed = true
			}
			if changed {
				break
			}
		}
		if !changed {
			return nil
		}
		// Growing a suffix adds join constraints monotonically, so it can
		// never relax an already-satisfied obligation; but the grown item's
		// new entry pattern may now mix with non-result tuples, so loop-1's
		// invariant must be re-established after each loop-2 round.
		if err := pr.loopNonResultConflicts(); err != nil {
			return err
		}
	}
}

func (pr *pruner) itemsConflict(p, q *item) bool {
	ps, pe := p.stepGraph()
	qs, qe := q.stepGraph()
	return overlaps(ps, qs, pe, qe, false)
}

// combinable decides whether two items' queries may overlap without growing:
// identical templates are emitted once; linear suffixes over the same
// relation sequence with the same result annotation are merged into one
// SELECT whose WHERE disjoins their conditions (§4.2's combinability).
func (pr *pruner) combinable(p, q *item) bool {
	if p.resultRel != q.resultRel || p.resultCol != q.resultCol {
		return false
	}
	if p.templateKey() == q.templateKey() {
		return true
	}
	if pr.combineMode == combineIdenticalOnly {
		return false
	}
	pseq, pok := p.linear()
	qseq, qok := q.linear()
	if !pok || !qok {
		return false
	}
	return (pseq[0] == p.g.Start()) == (qseq[0] == q.g.Start()) &&
		slices.Equal(translate.PathRelSeq(p.g, pseq), translate.PathRelSeq(q.g, qseq))
}

func (pr *pruner) growthLimit() int {
	n := len(pr.items)
	if n == 0 {
		return 1
	}
	// Each item can grow at most twice per cross-product node (lead stage +
	// node inclusion); pairwise interaction multiplies by the item count.
	return (2*len(pr.items[0].g.Nodes()) + 4) * (n + 1)
}
