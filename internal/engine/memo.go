package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// Stats reports the shared-work subplan memo's activity during one
// execution. The memo computes each distinct left-deep join prefix — same
// sources in order, same predicates consumed level by level — exactly once
// per query, no matter how many UNION ALL branches (or parallel workers)
// need it.
type Stats struct {
	// SharedHits counts join prefixes a branch reused from the memo instead
	// of recomputing.
	SharedHits int64
	// SharedMisses counts join prefixes computed and published to the memo.
	SharedMisses int64
	// SharedSavedRows sums the already-materialized rows each hit reused —
	// the join output the engine did not rebuild.
	SharedSavedRows int64

	// Auto reports that the cost-based knob chooser ran (Options.Auto).
	Auto bool
	// ParallelEnabled reports whether the UNION ALL worker pool was active
	// (resolved parallelism > 1 on a multi-branch query), whether chosen by
	// Auto or configured explicitly.
	ParallelEnabled bool
	// ParallelDisagrees reports that Auto's serial/parallel decision differs
	// from the old branch-count heuristic (parallelize any multi-branch
	// union when GOMAXPROCS > 1) — how often the stats-driven threshold
	// actually changes behavior.
	ParallelDisagrees bool
	// MemoEnabled reports whether the shared-work subplan memo was active.
	MemoEnabled bool
	// EstimatedRows is the estimator's predicted output cardinality
	// (0 when executed without an estimate); ActualRows is what the query
	// really returned. Their ratio is the estimator's headline error.
	EstimatedRows float64
	ActualRows    int64
}

// cteDep records which binding of a CTE a memo entry was computed against.
// Recursive CTEs rebind their name to a fresh delta every round, so entries
// from earlier rounds must never satisfy later lookups.
type cteDep struct {
	name  string
	epoch uint64
}

// memoEntry is one published (or in-flight) join prefix. done is closed when
// rows/width/err are final; waiting on it gives concurrent branch workers
// single-flight semantics.
type memoEntry struct {
	done  chan struct{}
	rows  []relational.Row
	width int
	err   error
	deps  []cteDep
}

// memo is the per-execution subplan cache. Entries' row slices are shared
// between branches, which is safe because the executor never mutates a
// frame's rows in place: joins and filters always build fresh slices.
type memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

func newMemo() *memo { return &memo{entries: map[string]*memoEntry{}} }

// dropStale removes every entry computed against a binding of name other
// than current. Called between recursive-CTE rounds (single-threaded), when
// all in-flight entries have been published.
func (m *memo) dropStale(name string, current uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, e := range m.entries {
		for _, d := range e.deps {
			if d.name == name && d.epoch != current {
				delete(m.entries, k)
				break
			}
		}
	}
}

// memoPlan is the canonical fingerprint of one SELECT's left-deep join
// pipeline: a cumulative key per FROM level plus the level each conjunct is
// consumed at (mirroring joinStep/applyCovered's rules, so a memoized frame
// is byte-for-byte the frame the engine would have built).
type memoPlan struct {
	keys     []string
	memoize  []bool
	deps     [][]cteDep
	conjs    []sqlast.Expr
	consumed []int // level each conjunct is consumed at; -1 = residual
}

// remainingAfter returns the conjuncts still pending once levels 0..level
// are complete, in original order.
func (p *memoPlan) remainingAfter(level int) []sqlast.Expr {
	var out []sqlast.Expr
	for ci, c := range p.conjs {
		if p.consumed[ci] < 0 || p.consumed[ci] > level {
			out = append(out, c)
		}
	}
	return out
}

// memoPlan fingerprints s, or returns nil when the select uses a shape the
// memo does not reason about (duplicate aliases, unqualified or constant
// predicates) — those evaluate through the plain path.
func (ex *executor) memoPlan(s *sqlast.Select, conjuncts []sqlast.Expr) *memoPlan {
	n := len(s.From)
	aliasPos := make(map[string]int, n)
	for i, f := range s.From {
		a := aliasOf(f)
		if _, dup := aliasPos[a]; dup {
			return nil
		}
		aliasPos[a] = i
	}
	plan := &memoPlan{
		keys:     make([]string, n),
		memoize:  make([]bool, n),
		deps:     make([][]cteDep, n),
		conjs:    conjuncts,
		consumed: make([]int, len(conjuncts)),
	}
	rename := func(a string) string { return "$" + strconv.Itoa(aliasPos[a]) }
	levels := make([][]string, n)
	for ci, c := range conjuncts {
		set := exprAliases(c, map[string]bool{})
		if len(set) == 0 {
			return nil // constant predicate: consumption level is positional, not structural
		}
		level := -1
		for a := range set {
			p, known := aliasPos[a]
			if a == "" || !known {
				level = -1
				break
			}
			if p > level {
				level = p
			}
		}
		plan.consumed[ci] = level
		if level >= 0 {
			levels[level] = append(levels[level], sqlast.CanonExpr(c, rename))
		}
	}
	var b strings.Builder
	var deps []cteDep
	for i, f := range s.From {
		b.WriteByte('/')
		if epoch, isCTE := ex.cteEpoch[f.Source]; isCTE {
			b.WriteString("c:")
			b.WriteString(f.Source)
			b.WriteByte('#')
			b.WriteString(strconv.FormatUint(epoch, 10))
			deps = append(deps, cteDep{name: f.Source, epoch: epoch})
		} else {
			b.WriteString("t:")
			b.WriteString(f.Source)
		}
		sort.Strings(levels[i])
		b.WriteByte('{')
		b.WriteString(strings.Join(levels[i], "&"))
		b.WriteByte('}')
		plan.keys[i] = b.String()
		plan.deps[i] = append([]cteDep(nil), deps...)
		// A bare unfiltered scan at level 0 is cheaper than a memo round
		// trip; everything deeper (a join) or filtered is worth sharing.
		plan.memoize[i] = i > 0 || len(levels[i]) > 0
	}
	return plan
}

// memoStep is joinStep with single-flight memoization: the first branch to
// reach a prefix computes and publishes it; every other branch (concurrent
// or later) reuses the published frame, rebinding it under its own aliases.
func (ex *executor) memoStep(plan *memoPlan, i int, cur *frame, rel *relation, alias string, remaining []sqlast.Expr) (*frame, []sqlast.Expr, error) {
	key := plan.keys[i]
	m := ex.memo
	m.mu.Lock()
	e, exists := m.entries[key]
	if !exists {
		e = &memoEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()

	if exists {
		select {
		case <-e.done:
		case <-ex.done:
			return nil, nil, ex.ctx.Err()
		}
		if e.err != nil {
			return nil, nil, e.err
		}
		ex.sharedHits.Add(1)
		ex.sharedSavedRows.Add(int64(len(e.rows)))
		var bindings []binding
		if cur != nil {
			bindings = cur.bindings
		}
		next := &frame{
			bindings: append(append([]binding(nil), bindings...), binding{alias: alias, cols: rel.cols, offset: e.width - len(rel.cols)}),
			rows:     e.rows,
			width:    e.width,
		}
		return next, plan.remainingAfter(i), nil
	}

	// Leader: compute, publish, and release waiters — even if the
	// computation panics, so a poisoned branch cannot strand its peers.
	published := false
	defer func() {
		if !published {
			e.err = fmt.Errorf("engine: shared subplan computation did not complete")
			close(e.done)
		}
	}()
	next, rest, err := ex.joinStep(cur, rel, alias, remaining, allColumns)
	if err != nil {
		e.err = err
		published = true
		close(e.done)
		return nil, nil, err
	}
	e.rows, e.width, e.deps = next.rows, next.width, plan.deps[i]
	ex.sharedMisses.Add(1)
	published = true
	close(e.done)
	return next, rest, nil
}

// memoWorthwhile reports whether q can repeat join work at all: at least two
// SELECT blocks anywhere (UNION branches, across CTE bodies) or a recursive
// CTE (whose rounds re-evaluate the same branches).
func memoWorthwhile(q *sqlast.Query) bool {
	n, rec := countSelects(q)
	return rec || n >= 2
}

func countSelects(q *sqlast.Query) (int, bool) {
	n := len(q.Selects)
	rec := false
	for _, c := range q.With {
		if c.Recursive {
			rec = true
		}
		cn, crec := countSelects(c.Body)
		n += cn
		rec = rec || crec
	}
	return n, rec
}
