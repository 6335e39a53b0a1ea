package engine

import (
	"context"
	"fmt"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// MaxRecursionRounds bounds recursive CTE evaluation; shredded XML data is
// acyclic so any real query converges far earlier. Exceeding the bound is
// reported as an error rather than looping forever.
const MaxRecursionRounds = 100000

// Options configure execution.
type Options struct {
	// ForceNestedLoop disables hash joins (used by the substrate ablation
	// bench to show the relative orderings do not depend on the join
	// algorithm).
	ForceNestedLoop bool
	// DisableIndexes skips persistent table indexes even when present,
	// always building per-query hash tables.
	DisableIndexes bool
	// MaxRows bounds the rows the query may materialize, counting join
	// outputs, projected results, and recursive-CTE accumulation across all
	// branches. 0 means unlimited. Exceeding the bound aborts the query with
	// a *ResourceError instead of exhausting memory — the guard a serving
	// layer needs against a query whose intermediate results explode.
	MaxRows int
	// MaxCTEIterations bounds recursive CTE evaluation rounds; 0 means the
	// package default MaxRecursionRounds. A cyclic instance (or a cyclic
	// schema shredded into one) makes the fixpoint loop diverge; the bound
	// turns that divergence into a typed *ResourceError instead of a hang.
	MaxCTEIterations int
}

// Execute evaluates q against the store under a context: Prepare, then
// AppendRows(nil). Evaluation is serial: CTEs in definition order, then the
// UNION ALL branches in branch order, so rows come back in branch order and
// the first failing branch's error is the one reported. Cancellation is
// cooperative and prompt: the executor polls the context between UNION ALL
// branches, between recursive-CTE rounds, and every cancelCheckInterval rows
// inside join and filter loops, so a cancelled or deadline-expired context
// aborts even a single long-running branch with ctx.Err() rather than
// running it to completion.
func Execute(ctx context.Context, store *relational.Store, q *sqlast.Query, opts Options) (*Result, error) {
	p, err := Prepare(ctx, store, q, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Cols, Rows: p.AppendRows(nil), Work: p.Work}, nil
}

// Prepare evaluates q as Execute does, up to each SELECT block's final
// projection: its Work, MaxRows charges and errors are final, and
// AppendRows writes the answer rows wherever the caller wants them. The
// first run compiles q (see compiled); later runs do only the data work.
// A panic while compiling or evaluating fails the query instead of the
// serving process.
func Prepare(ctx context.Context, store *relational.Store, q *sqlast.Query, opts Options) (p *Prepared, err error) {
	ex := &executor{opts: opts, done: ctx.Done(), ctx: ctx}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("engine: panic evaluating union branch: %v", r)
		}
	}()
	pl, tables, err := compiled(store, q)
	if err == nil {
		ex.tables, ex.ctes = tables, make([][]relational.Row, pl.slots)
		p, err = ex.query(pl.root)
	}
	if err != nil {
		return nil, err
	}
	p.Work = ex.work
	return p, nil
}

type executor struct {
	// tables are the plan's tables in the run's store; ctes each CTE slot's
	// rows (a recursive CTE's last delta while its rounds run).
	tables []*relational.Table
	ctes   [][]relational.Row
	opts   Options
	ctx    context.Context
	// done is ctx.Done(), captured once: polling a channel in a select is
	// cheaper than ctx.Err() on hot row loops (and nil for Background, which
	// a nil-channel select handles for free).
	done <-chan struct{}
	// work accumulates the query's Work; its Materialized count is checked
	// against opts.MaxRows across all branches.
	work Work
}

// cancelCheckInterval is how many rows a join or filter loop processes
// between context polls: coarse enough to stay off the profile, fine enough
// that cancellation lands within microseconds of real work.
const cancelCheckInterval = 4096

// cancelled reports the context's error once the context is done.
func (ex *executor) cancelled() error {
	select {
	case <-ex.done:
		return ex.ctx.Err()
	default:
		return nil
	}
}

// tick counts down a loop-local budget and polls for cancellation when it
// runs out.
func (ex *executor) tick(countdown *int) error {
	ex.work.Examined++
	*countdown--
	if *countdown > 0 {
		return nil
	}
	*countdown = cancelCheckInterval
	return ex.cancelled()
}

// charge counts n newly materialized rows against Options.MaxRows.
func (ex *executor) charge(n int) error {
	ex.work.Materialized += n
	if ex.opts.MaxRows > 0 && ex.work.Materialized > ex.opts.MaxRows {
		return &ResourceError{Resource: ResourceRows, Limit: ex.opts.MaxRows}
	}
	return nil
}

func (ex *executor) query(qp *queryPlan) (*Prepared, error) {
	for _, c := range qp.ctes {
		rows, err := ex.cte(c)
		if err != nil {
			return nil, err
		}
		ex.ctes[c.slot] = rows
	}
	return ex.evalSelects(qp)
}

// evalSelects evaluates a UNION ALL's branches in branch order, polling for
// cancellation before each and stopping at the first error, and returns them
// unprojected.
func (ex *executor) evalSelects(qp *queryPlan) (*Prepared, error) {
	p := &Prepared{Cols: qp.cols, blocks: make([]block, len(qp.sels))}
	for i, s := range qp.sels {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		b, err := ex.selectBlock(s)
		if err != nil {
			return nil, err
		}
		p.blocks[i] = b
	}
	return p, nil
}

// cte evaluates a CTE's rows. A recursive CTE is linear-recursive UNION ALL
// with standard SQL:1999 semantics: its body seeds the working table; its
// recursive branches are re-evaluated against only the rows produced in the
// previous round, until a round produces nothing.
func (ex *executor) cte(c *ctePlan) ([]relational.Row, error) {
	seed, err := ex.query(c.body)
	if err != nil {
		return nil, err
	}
	acc := seed.AppendRows(nil)
	if c.rec == nil {
		return acc, nil
	}
	if err := ex.charge(len(acc)); err != nil {
		return nil, err
	}
	maxRounds := MaxRecursionRounds
	if ex.opts.MaxCTEIterations > 0 {
		maxRounds = ex.opts.MaxCTEIterations
	}
	// Each round binds the slot to the previous round's delta, the
	// accumulator's tail, and projects onto the accumulator's end.
	delta := acc
	for round := 0; len(delta) > 0; round++ {
		if round >= maxRounds {
			return nil, &ResourceError{Resource: ResourceCTEIterations, Limit: maxRounds, Detail: fmt.Sprintf("recursive cte %q", c.name)}
		}
		// Poll between rounds: a diverging fixpoint (cyclic instance) must
		// still honor cancellation even when each round is fast.
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		ex.ctes[c.slot] = delta
		next, err := ex.evalSelects(c.rec)
		if err != nil {
			return nil, err
		}
		if err := ex.charge(next.Len()); err != nil {
			return nil, err
		}
		n := len(acc)
		acc = next.AppendRows(acc)
		delta = acc[n:]
	}
	return acc, nil
}

// selectBlock runs one compiled SELECT up to its projection. Each step reads
// its relation, by index probes or in full and filtered by its local
// predicate, joins it to the rows so far, and filters by what it covers.
func (ex *executor) selectBlock(s *selectPlan) (block, error) {
	var rows []relational.Row
	owned := false // rows were built here, not a relation's own slice
	for i := range s.steps {
		st, t, err := &s.steps[i], (*relational.Table)(nil), error(nil)
		if st.table >= 0 {
			t = ex.tables[st.table]
		}
		if i > 0 && st.probe && !ex.opts.ForceNestedLoop && !ex.opts.DisableIndexes && t.HasIndex(st.keys[0].column) {
			rows, err = ex.indexJoin(rows, t, st.keys[0], st.arena)
		} else {
			var rel []relational.Row
			if t != nil {
				rel = t.Rows()
			} else {
				rel = ex.ctes[st.slot]
			}
			ex.work.Scanned += len(rel)
			in := rel
			if st.local != nil {
				if in, err = ex.filter(rel, st.local); err != nil {
					return block{}, err
				}
			}
			switch {
			case i == 0:
				rows, owned = in, st.local != nil
			case len(st.keys) == 0 || ex.opts.ForceNestedLoop:
				rows, err = ex.nestedLoopJoin(rows, in, st.keys, st.arena)
			default:
				rows, err = ex.hashJoin(rows, in, st.keys, st.arena)
			}
		}
		if err == nil && st.covered != nil {
			rows, err = ex.filter(rows, st.covered)
			owned = true
		}
		if err != nil {
			return block{}, err
		}
		owned = owned || i > 0
	}
	if err := ex.charge(len(rows)); err != nil {
		return block{}, err
	}
	return block{rows: rows, owned: owned, projs: s.projs}, nil
}

// window reports whether projs read the frame offsets lo..hi-1 in order.
func window(projs []operand) (lo, hi int, ok bool) {
	if len(projs) == 0 || projs[0].idx < 0 {
		return 0, 0, false
	}
	lo = projs[0].idx
	for j, p := range projs {
		if p.idx != lo+j {
			return 0, 0, false
		}
	}
	return lo, lo + len(projs), true
}

// filter returns the rows pred accepts, polling for cancellation. It notes
// their positions in a pointer-free slice first, so the output is allocated
// once, at its exact size.
func (ex *executor) filter(rows []relational.Row, pred predicate) ([]relational.Row, error) {
	var at []int32
	countdown := cancelCheckInterval
	for i, r := range rows {
		if err := ex.tick(&countdown); err != nil {
			return nil, err
		}
		if pred(r) {
			at = append(at, int32(i))
		}
	}
	out := make([]relational.Row, len(at))
	for j, i := range at {
		out[j] = rows[i]
	}
	return out, nil
}

// joinKey is one equi-join condition bound to offsets: left into the current
// frame's rows, right into the new relation's rows, whose column it names
// for index probes.
type joinKey struct {
	left, right int
	column      string
}

// keysMatch reports whether every key joins l to r; NULL never joins.
func keysMatch(keys []joinKey, l, r relational.Row) bool {
	for _, k := range keys {
		if !l[k.left].Equal(r[k.right]) {
			return false
		}
	}
	return true
}

// Join arenas start at arenaMinRows rows and double up to arenaMaxRows: a
// join that emits one row stays small (hot point queries), and one that
// emits n rows allocates O(log n) times up to the cap.
const (
	arenaMinRows = 8
	arenaMaxRows = 4096
)

// rowArena builds a join's combined rows. When the kept columns are one
// ascending run of the left row's columns or of the right row's, a combined
// row is a window onto that row and nothing is copied. Otherwise rows are
// carved from shared chunks. Either way each row is capacity-capped, so an
// append to one row copies instead of writing into its neighbour or the next
// column of the row it shares. src picks the kept columns from the left row
// followed by the right one; nil keeps them all.
type rowArena struct {
	width, chunk int
	src          []int
	free         []relational.Value
	// side is the row a window reads (sideLeft, sideRight), from column lo
	// on; sideNone joins into the chunks.
	side, lo int
}

const (
	sideNone = iota
	sideLeft
	sideRight
)

// newRowArena lays out the join rows that keep src (see extend) of a left
// row left columns wide, width columns in all.
func newRowArena(left, width int, src []int) rowArena {
	a := rowArena{width: width, src: src}
	if width == 0 {
		return a
	}
	lo := 0
	if src != nil {
		lo = src[0]
		for j, s := range src {
			if s != lo+j {
				return a
			}
		}
	}
	switch {
	case lo+width <= left:
		a.side, a.lo = sideLeft, lo
	case lo >= left:
		a.side, a.lo = sideRight, lo-left
	}
	return a
}

func (a *rowArena) join(l, r relational.Row) relational.Row {
	switch hi := a.lo + a.width; a.side {
	case sideLeft:
		return l[a.lo:hi:hi]
	case sideRight:
		return r[a.lo:hi:hi]
	}
	if len(a.free) < a.width {
		a.chunk = min(max(2*a.chunk, arenaMinRows), arenaMaxRows)
		a.free = make([]relational.Value, a.chunk*a.width)
	}
	row := a.free[:a.width:a.width]
	a.free = a.free[a.width:]
	if a.src == nil {
		copy(row[copy(row, l):], r)
	}
	for j, s := range a.src {
		if s < len(l) {
			row[j] = l[s]
		} else {
			row[j] = r[s-len(l)]
		}
	}
	return row
}

// nestedLoopJoin pairs every current row with every right row the keys
// accept (all of them when there are no keys).
func (ex *executor) nestedLoopJoin(left, rightRows []relational.Row, keys []joinKey, arena rowArena) ([]relational.Row, error) {
	var out []relational.Row
	countdown := cancelCheckInterval
	for _, lrow := range left {
		for _, rrow := range rightRows {
			if err := ex.tick(&countdown); err != nil {
				return nil, err
			}
			if !keysMatch(keys, lrow, rrow) {
				continue
			}
			if err := ex.charge(1); err != nil {
				return nil, err
			}
			out = append(out, arena.join(lrow, rrow))
		}
	}
	return out, nil
}

// indexJoin probes a persistent table index for a single equi-join. Its
// output is allocated once, for the left rows times the index's mean bucket
// size, rounded up, and at most one row per right row, so a selective or
// skewed probe cannot over-allocate past the table.
func (ex *executor) indexJoin(left []relational.Row, t *relational.Table, k joinKey, arena rowArena) ([]relational.Row, error) {
	var out, matches []relational.Row
	if rows, keys := t.IndexShape(k.column); keys > 0 {
		out = make([]relational.Row, 0, min(rows, (len(left)*rows+keys-1)/keys))
	}
	countdown := cancelCheckInterval
	for _, lrow := range left {
		if err := ex.tick(&countdown); err != nil {
			return nil, err
		}
		v := lrow[k.left]
		if v.IsNull() {
			continue // NULL never joins
		}
		matches = t.AppendLookup(matches[:0], k.column, v)
		if err := ex.charge(len(matches)); err != nil {
			return nil, err
		}
		for _, rrow := range matches {
			out = append(out, arena.join(lrow, rrow))
		}
	}
	return out, nil
}

// hashJoin chains the (usually smaller, pre-filtered) right rows by the
// first key's value and probes the chains with the current frame's rows,
// checking any further keys per candidate.
func (ex *executor) hashJoin(left, rightRows []relational.Row, keys []joinKey, arena rowArena) ([]relational.Row, error) {
	// head maps a value to its first right row (1-based); next links rows of
	// equal value. Chaining from the last row keeps each chain in row order.
	first, rest := keys[0], keys[1:]
	head := make(map[relational.Value]int, len(rightRows))
	next := make([]int, len(rightRows))
	for i := len(rightRows) - 1; i >= 0; i-- {
		if v := rightRows[i][first.right]; !v.IsNull() { // NULL never joins
			next[i] = head[v]
			head[v] = i + 1
		}
	}
	var out []relational.Row
	countdown := cancelCheckInterval
	for _, lrow := range left {
		if err := ex.tick(&countdown); err != nil {
			return nil, err
		}
		v := lrow[first.left]
		if v.IsNull() {
			continue
		}
		n := 0
		for j := head[v]; j != 0; j = next[j-1] {
			if rrow := rightRows[j-1]; keysMatch(rest, lrow, rrow) {
				out = append(out, arena.join(lrow, rrow))
				n++
			}
		}
		if err := ex.charge(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
