package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
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
	// Parallelism bounds the worker pool evaluating the branches of a
	// UNION ALL concurrently: 0 means GOMAXPROCS, values < 0 and 1 force
	// serial evaluation, N > 1 allows up to N branches in flight. Results are
	// merged in branch order, so parallel execution returns rows in
	// exactly the serial order. Naive translations — unions of
	// root-to-leaf join chains, six branches for XMark's Q1 and the Edge
	// mapping's Q8 — are the workloads with enough independent branch work
	// to scale with cores.
	Parallelism int
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
	// DisableMemo turns off the shared-work subplan memo (see Stats): every
	// UNION ALL branch then recomputes its join prefixes from scratch, as
	// the pre-memo engine did. Used by benchmarks to measure the memo's
	// contribution and by tests as a differential oracle. Note that rows a
	// branch reuses from the memo are charged against MaxRows once, when
	// first materialized, not once per reusing branch.
	DisableMemo bool
	// Auto enables cost-based per-query knob selection using Estimate:
	// Parallelism (when left 0) resolves to serial unless the estimated
	// per-branch work clears stats.ParallelMinBranchCost — replacing the
	// old branch-count heuristic that parallelized every multi-branch
	// union — and the subplan memo (when not already disabled) stays on
	// only when the estimated shared-prefix reuse is positive. Explicitly
	// set knobs (Parallelism != 0, DisableMemo) are never overridden. With
	// a nil Estimate, Auto falls back to serial execution with the memo
	// under its structural gate. The decisions taken are reported in Stats.
	Auto bool
	// Estimate is the statistics-based cardinality/cost estimate of the
	// query being executed (see stats.Estimator.EstimateQuery), consulted
	// by Auto and echoed into Stats for estimate-vs-actual accounting.
	Estimate *stats.QueryEstimate
}

// Execute evaluates q against the store with default options.
func Execute(store *relational.Store, q *sqlast.Query) (*Result, error) {
	return ExecuteCtx(context.Background(), store, q, Options{})
}

// ExecuteOpts evaluates q against the store.
func ExecuteOpts(store *relational.Store, q *sqlast.Query, opts Options) (*Result, error) {
	return ExecuteCtx(context.Background(), store, q, opts)
}

// ExecuteCtx evaluates q against the store under a context. Cancellation is
// cooperative and prompt: the executor polls the context between UNION ALL
// branches, between recursive-CTE rounds, and every cancelCheckInterval rows
// inside join and filter loops, so a cancelled or deadline-expired context
// aborts even a single long-running branch with ctx.Err() rather than running
// it to completion.
func ExecuteCtx(ctx context.Context, store *relational.Store, q *sqlast.Query, opts Options) (*Result, error) {
	res, _, err := ExecuteCtxStats(ctx, store, q, opts)
	return res, err
}

// ExecuteCtxStats is ExecuteCtx plus the execution's shared-work Stats: how
// often UNION ALL branches reused a memoized join prefix instead of
// recomputing it, and how many materialized rows that reuse saved.
func ExecuteCtxStats(ctx context.Context, store *relational.Store, q *sqlast.Query, opts Options) (*Result, Stats, error) {
	var st Stats
	if opts.Auto {
		opts = resolveAuto(opts, q, &st)
	}
	ex := &executor{store: store, ctes: map[string]*Result{}, cteEpoch: map[string]uint64{}, opts: opts, done: ctx.Done(), ctx: ctx}
	if !opts.DisableMemo && memoWorthwhile(q) {
		ex.memo = newMemo()
	}
	st.MemoEnabled = ex.memo != nil
	st.ParallelEnabled = ex.parallelism() > 1 && len(q.Selects) > 1
	if opts.Estimate != nil {
		st.EstimatedRows = opts.Estimate.Rows
	}
	if err := ex.cancelled(); err != nil {
		return nil, st, err
	}
	res, err := ex.query(q)
	st.SharedHits = ex.sharedHits.Load()
	st.SharedMisses = ex.sharedMisses.Load()
	st.SharedSavedRows = ex.sharedSavedRows.Load()
	if res != nil {
		st.ActualRows = int64(len(res.Rows))
	}
	return res, st, err
}

// resolveAuto applies the cost-based knob chooser to the unset knobs,
// recording each decision (and whether it disagrees with the old
// branch-count heuristic, which parallelized every multi-branch union).
func resolveAuto(opts Options, q *sqlast.Query, st *Stats) Options {
	st.Auto = true
	est := opts.Estimate
	procs := runtime.GOMAXPROCS(0)
	oldHeuristicParallel := procs > 1 && len(q.Selects) >= 2
	if opts.Parallelism == 0 {
		if est.ParallelWorthwhile(procs) {
			// Leave 0: the pool sizes itself to GOMAXPROCS.
		} else {
			opts.Parallelism = 1
		}
	}
	autoParallel := opts.Parallelism == 0 || opts.Parallelism > 1
	st.ParallelDisagrees = autoParallel != oldHeuristicParallel
	if !opts.DisableMemo && !est.MemoWorthwhile() {
		opts.DisableMemo = true
	}
	return opts
}

type executor struct {
	store *relational.Store
	ctes  map[string]*Result
	opts  Options
	ctx   context.Context
	// done is ctx.Done(), captured once: polling a channel in a select is
	// cheaper than ctx.Err() on hot row loops (and nil for Background, which
	// a nil-channel select handles for free).
	done <-chan struct{}
	// rows counts materialized rows against opts.MaxRows across all branches
	// (hence atomic: parallel UNION workers all charge it).
	rows atomic.Int64
	// memo shares computed join prefixes across UNION ALL branches (nil when
	// disabled or when the query has a single SELECT and nothing to share).
	memo *memo
	// cteEpoch tracks the current binding generation of every materialized
	// CTE name. Bumped on every bind, it flows into memo keys so a prefix
	// computed over one binding (e.g. one recursive round's delta) never
	// satisfies a lookup against another. Written only between evalSelects
	// rounds; read-only while branches run in parallel.
	cteEpoch     map[string]uint64
	epochCounter uint64
	// Shared-work counters (see Stats); atomic because parallel branch
	// workers all bump them.
	sharedHits, sharedMisses, sharedSavedRows atomic.Int64
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
// runs out. Loops own their counter (no shared state), so parallel branches
// poll independently.
func (ex *executor) tick(countdown *int) error {
	*countdown--
	if *countdown > 0 {
		return nil
	}
	*countdown = cancelCheckInterval
	return ex.cancelled()
}

// charge counts n newly materialized rows against Options.MaxRows.
func (ex *executor) charge(n int) error {
	if ex.opts.MaxRows <= 0 || n == 0 {
		return nil
	}
	if ex.rows.Add(int64(n)) > int64(ex.opts.MaxRows) {
		return &ResourceError{Resource: ResourceRows, Limit: ex.opts.MaxRows}
	}
	return nil
}

// relation is a uniform row source: a base table or a materialized CTE.
type relation struct {
	cols []string
	rows []relational.Row
	// table is set for base tables, enabling index probes.
	table *relational.Table
}

func (ex *executor) resolve(name string) (*relation, error) {
	if r, ok := ex.ctes[name]; ok {
		return &relation{cols: r.Cols, rows: r.Rows}, nil
	}
	t := ex.store.Table(name)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table or cte %q", name)
	}
	cols := make([]string, len(t.Schema().Columns))
	for i, c := range t.Schema().Columns {
		cols[i] = c.Name
	}
	return &relation{cols: cols, rows: t.Rows(), table: t}, nil
}

// bindCTE installs a CTE's materialization under a fresh epoch; unbindCTE
// removes it and drops any memo entries computed against it (epoch 0 never
// matches a real binding, so dropStale with 0 drops them all).
func (ex *executor) bindCTE(name string, res *Result) {
	ex.ctes[name] = res
	ex.epochCounter++
	ex.cteEpoch[name] = ex.epochCounter
}

func (ex *executor) unbindCTE(name string) {
	delete(ex.ctes, name)
	delete(ex.cteEpoch, name)
	if ex.memo != nil {
		ex.memo.dropStale(name, 0)
	}
}

func (ex *executor) query(q *sqlast.Query) (*Result, error) {
	// Materialize CTEs in order; later CTEs and the main body may reference
	// earlier ones.
	defined := make([]string, 0, len(q.With))
	defer func() {
		for _, name := range defined {
			ex.unbindCTE(name)
		}
	}()
	for _, cte := range q.With {
		if _, dup := ex.ctes[cte.Name]; dup {
			return nil, fmt.Errorf("engine: duplicate cte %q", cte.Name)
		}
		var res *Result
		var err error
		if cte.Recursive {
			res, err = ex.recursiveCTE(cte)
		} else {
			res, err = ex.query(cte.Body)
		}
		if err != nil {
			return nil, err
		}
		ex.bindCTE(cte.Name, res)
		defined = append(defined, cte.Name)
	}

	branches, err := ex.evalSelects(q.Selects)
	if err != nil {
		return nil, err
	}
	if len(branches) == 0 {
		return &Result{}, nil
	}
	if len(branches) == 1 {
		return &Result{Cols: branches[0].Cols, Rows: branches[0].Rows}, nil
	}
	// Merge into a freshly allocated Result: appending into branches[0] in
	// place would mutate a Result whose row slice may be shared (a memoized
	// prefix, a CTE materialization another branch still reads).
	total := 0
	for _, r := range branches {
		if len(r.Cols) != len(branches[0].Cols) {
			return nil, fmt.Errorf("engine: union all arity mismatch: %d vs %d", len(branches[0].Cols), len(r.Cols))
		}
		total += len(r.Rows)
	}
	out := &Result{Cols: branches[0].Cols, Rows: make([]relational.Row, 0, total)}
	for _, r := range branches {
		out.Rows = append(out.Rows, r.Rows...)
	}
	return out, nil
}

// parallelism resolves the configured worker bound. Negative values clamp to
// serial: a caller passing -1 plausibly means "disabled", and silently
// enabling full parallelism for it would be surprising.
func (ex *executor) parallelism() int {
	if ex.opts.Parallelism < 0 {
		return 1
	}
	if ex.opts.Parallelism > 0 {
		return ex.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// evalSelects evaluates a UNION ALL's branches and returns the per-branch
// results in branch order. With parallelism > 1 and at least two branches,
// the branches run concurrently under a bounded worker pool; because each
// branch's rows land in its own slot and the caller concatenates the slots
// in order, the merged row order is identical to serial evaluation.
//
// Concurrent branch evaluation is safe because selectBlock only reads
// executor state: the store is read-only during execution and the ctes map
// is fully materialized (and not mutated) before any UNION body runs.
func (ex *executor) evalSelects(sels []*sqlast.Select) ([]*Result, error) {
	par := ex.parallelism()
	if par > len(sels) {
		par = len(sels)
	}
	if len(sels) < 2 || par < 2 {
		out := make([]*Result, len(sels))
		for i, s := range sels {
			r, err := ex.safeSelect(s)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	results := make([]*Result, len(sels))
	errs := make([]error, len(sels))
	// Spawn exactly par workers pulling branch indexes from a shared counter,
	// so goroutine creation (not just concurrency) is bounded even for
	// pathological many-branch unions. The stop flag makes shutdown prompt:
	// once any branch fails (or the context is cancelled, which surfaces as a
	// branch error), workers stop claiming new branches instead of grinding
	// through the rest of the union.
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(sels) {
					return
				}
				results[i], errs[i] = ex.safeSelect(sels[i])
				if errs[i] != nil {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Report the first (branch-order) error deterministically, matching what
	// serial evaluation would have surfaced. Branch claiming is monotonic in
	// index, so every branch before a failed one has a recorded outcome and
	// the first non-nil error is well defined despite early stop.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// safeSelect evaluates one UNION branch with the serving-path protections:
// a cancellation check before starting and panic containment, so one
// poisoned branch fails the query with an error instead of killing the
// process (a panic in a bare worker goroutine is fatal to the whole program).
func (ex *executor) safeSelect(s *sqlast.Select) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: panic evaluating union branch: %v", r)
		}
	}()
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	return ex.selectBlock(s)
}

// recursiveCTE evaluates a linear-recursive UNION ALL CTE with standard
// SQL:1999 semantics: base branches seed the working table; recursive
// branches are re-evaluated against only the rows produced in the previous
// round, until a round produces nothing.
func (ex *executor) recursiveCTE(cte sqlast.CTE) (*Result, error) {
	var base, rec []*sqlast.Select
	for _, s := range cte.Body.Selects {
		if selectReferences(s, cte.Name) {
			rec = append(rec, s)
		} else {
			base = append(base, s)
		}
	}
	if len(cte.Body.With) > 0 {
		return nil, fmt.Errorf("engine: nested WITH inside recursive cte %q is not supported", cte.Name)
	}
	if len(rec) == 0 {
		// Not actually recursive; evaluate as a plain CTE.
		return ex.query(cte.Body)
	}

	acc := &Result{}
	baseResults, err := ex.evalSelects(base)
	if err != nil {
		return nil, err
	}
	for _, r := range baseResults {
		if acc.Cols == nil {
			acc.Cols = r.Cols
		} else if len(acc.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("engine: recursive cte %q: arity mismatch among base branches", cte.Name)
		}
		acc.Rows = append(acc.Rows, r.Rows...)
	}
	if acc.Cols == nil {
		return nil, fmt.Errorf("engine: recursive cte %q has no base branch", cte.Name)
	}

	if err := ex.charge(len(acc.Rows)); err != nil {
		return nil, err
	}

	maxRounds := MaxRecursionRounds
	if ex.opts.MaxCTEIterations > 0 {
		maxRounds = ex.opts.MaxCTEIterations
	}
	delta := acc.Rows
	for round := 0; len(delta) > 0; round++ {
		if round >= maxRounds {
			return nil, &ResourceError{
				Resource: ResourceCTEIterations,
				Limit:    maxRounds,
				Detail:   fmt.Sprintf("recursive cte %q", cte.Name),
			}
		}
		// Poll between rounds: a diverging fixpoint (cyclic instance) must
		// still honor cancellation even when each round is fast.
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		// Bind the CTE name to the previous delta only, under a fresh epoch:
		// memo entries computed against earlier rounds' deltas stop
		// matching and are dropped. The binding is written before the
		// round's branches start and read-only while they run, so the
		// branches themselves may evaluate in parallel.
		ex.bindCTE(cte.Name, &Result{Cols: acc.Cols, Rows: delta})
		if ex.memo != nil {
			ex.memo.dropStale(cte.Name, ex.cteEpoch[cte.Name])
		}
		recResults, err := ex.evalSelects(rec)
		if err != nil {
			ex.unbindCTE(cte.Name)
			return nil, err
		}
		var next []relational.Row
		for _, r := range recResults {
			if len(r.Cols) != len(acc.Cols) {
				ex.unbindCTE(cte.Name)
				return nil, fmt.Errorf("engine: recursive cte %q: arity mismatch in recursive branch", cte.Name)
			}
			next = append(next, r.Rows...)
		}
		if err := ex.charge(len(next)); err != nil {
			ex.unbindCTE(cte.Name)
			return nil, err
		}
		acc.Rows = append(acc.Rows, next...)
		delta = next
	}
	ex.unbindCTE(cte.Name)
	return acc, nil
}

func selectReferences(s *sqlast.Select, name string) bool {
	for _, f := range s.From {
		if f.Source == name {
			return true
		}
	}
	return false
}

// binding maps an alias to its column layout inside the composite row built
// during join processing.
type binding struct {
	alias  string
	cols   []string
	offset int
}

type frame struct {
	bindings []binding
	rows     []relational.Row
	width    int
}

func (f *frame) find(table, column string) (int, error) {
	if table != "" {
		for _, b := range f.bindings {
			if b.alias != table {
				continue
			}
			for i, c := range b.cols {
				if c == column {
					return b.offset + i, nil
				}
			}
			return -1, fmt.Errorf("engine: alias %s has no column %s", table, column)
		}
		return -1, fmt.Errorf("engine: unknown alias %s", table)
	}
	found := -1
	for _, b := range f.bindings {
		for i, c := range b.cols {
			if c == column {
				if found >= 0 {
					return -1, fmt.Errorf("engine: ambiguous column %s", column)
				}
				found = b.offset + i
			}
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("engine: unknown column %s", column)
	}
	return found, nil
}

func (f *frame) hasAlias(alias string) bool {
	for _, b := range f.bindings {
		if b.alias == alias {
			return true
		}
	}
	return false
}

// allColumns, as the columns a join must keep, keeps every column: a star
// with no alias.
var allColumns = []sqlast.ColRef{{Column: "*"}}

// extend lays out the frame that joining f with a relation produces, keeping
// the columns some ref reads; a "*" ref reads all of its alias's columns, or
// of every alias when it names none. src is each kept column's offset in f's
// row followed by the relation's, or nil when all are kept.
func (f *frame) extend(alias string, cols []string, refs []sqlast.ColRef) (next *frame, src []int) {
	next = &frame{bindings: make([]binding, 0, len(f.bindings)+1)}
	src = make([]int, 0, f.width+len(cols))
	add := func(alias string, cols []string, base int) {
		from := len(src)
		for i, c := range cols {
			if slices.ContainsFunc(refs, func(r sqlast.ColRef) bool {
				return (r.Table == "" || r.Table == alias) && (r.Column == c || r.Column == "*")
			}) {
				src = append(src, base+i)
			}
		}
		b := binding{alias: alias, cols: cols, offset: next.width}
		if kept := src[from:]; len(kept) < len(cols) {
			b.cols = make([]string, len(kept))
			for j, k := range kept {
				b.cols[j] = cols[k-base]
			}
		}
		next.bindings = append(next.bindings, b)
		next.width += len(b.cols)
	}
	for _, b := range f.bindings {
		add(b.alias, b.cols, b.offset)
	}
	add(alias, cols, f.width)
	if next.width == f.width+len(cols) {
		src = nil
	}
	return next, src
}

func (ex *executor) selectBlock(s *sqlast.Select) (*Result, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("engine: select with empty FROM")
	}
	seen := map[string]bool{}
	for _, f := range s.From {
		a := aliasOf(f)
		if seen[a] {
			return nil, fmt.Errorf("engine: duplicate alias %s", a)
		}
		seen[a] = true
	}

	conjuncts := splitConjuncts(s.Where)

	// Fingerprint the join pipeline for the shared-work memo: branches of a
	// UNION ALL (and recursive-CTE rounds) with a canonically equal prefix
	// reuse one computation instead of racing to duplicate it.
	var plan *memoPlan
	if ex.memo != nil {
		plan = ex.memoPlan(s, conjuncts)
	}

	// Joins carry only the columns read after them: need lists those the
	// projection reads. Memoized frames are shared by branches with other
	// projections, so they keep them all.
	need := allColumns
	if plan == nil {
		need = nil
		for _, item := range s.Cols {
			if item.Star {
				need = append(need, sqlast.ColRef{Table: item.StarTable, Column: "*"})
			} else {
				walkRefs(item.Expr, func(c sqlast.ColRef) { need = append(need, c) })
			}
		}
	}

	// Build left-deep join in FROM order.
	var cur *frame
	remaining := conjuncts
	for i, f := range s.From {
		rel, err := ex.resolve(f.Source)
		if err != nil {
			return nil, err
		}
		alias := aliasOf(f)
		var next *frame
		var rest []sqlast.Expr
		if plan != nil && plan.memoize[i] {
			next, rest, err = ex.memoStep(plan, i, cur, rel, alias, remaining)
		} else {
			next, rest, err = ex.joinStep(cur, rel, alias, remaining, need)
		}
		if err != nil {
			return nil, err
		}
		cur = next
		remaining = rest
	}

	// Residual predicates (e.g. ORs across aliases).
	if len(remaining) > 0 {
		pred, err := bindAll(remaining, cur, true)
		if err != nil {
			return nil, err
		}
		rows, err := ex.filter(cur.rows, pred)
		if err != nil {
			return nil, err
		}
		cur = &frame{bindings: cur.bindings, rows: rows, width: cur.width}
	}

	// Projection.
	var projs []operand
	var names []string
	for _, item := range s.Cols {
		if item.Star {
			bi := slices.IndexFunc(cur.bindings, func(b binding) bool { return b.alias == item.StarTable })
			if bi < 0 {
				return nil, fmt.Errorf("engine: star over unknown alias %s", item.StarTable)
			}
			for i, c := range cur.bindings[bi].cols {
				projs = append(projs, operand{idx: cur.bindings[bi].offset + i})
				names = append(names, c)
			}
			continue
		}
		p, err := bindOperand(item.Expr, cur)
		if err != nil {
			return nil, err
		}
		name := item.As
		if c, ok := item.Expr.(sqlast.ColRef); ok && name == "" {
			name = c.Column
		}
		projs = append(projs, p)
		names = append(names, name)
	}
	if err := ex.charge(len(cur.rows)); err != nil {
		return nil, err
	}
	// One arena holds every projected value; each row is a capacity-capped
	// window onto it, so an append to one row copies instead of writing into
	// its neighbour.
	w := len(projs)
	arena := make([]relational.Value, len(cur.rows)*w)
	res := &Result{Cols: names, Rows: make([]relational.Row, len(cur.rows))}
	for i, row := range cur.rows {
		out := arena[i*w : (i+1)*w : (i+1)*w]
		for j, p := range projs {
			out[j] = p.get(row)
		}
		res.Rows[i] = out
	}
	return res, nil
}

func aliasOf(f sqlast.FromItem) string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Source
}

// joinStep joins the current frame with a new relation bound to alias,
// consuming from `conjuncts` every predicate that becomes fully evaluable.
// It returns the new frame and the still-pending conjuncts. The new frame
// keeps the columns that need or a pending conjunct reads (see extend).
func (ex *executor) joinStep(cur *frame, rel *relation, alias string, conjuncts []sqlast.Expr, need []sqlast.ColRef) (*frame, []sqlast.Expr, error) {
	// Local predicates on the new relation alone.
	solo := &frame{bindings: []binding{{alias: alias, cols: rel.cols}}, width: len(rel.cols)}
	var local, pending []sqlast.Expr
	var joinConds []sqlast.Cmp
	for _, c := range conjuncts {
		aliases := exprAliases(c, map[string]bool{})
		switch {
		case onlyAlias(aliases, alias):
			local = append(local, c)
		case cur != nil && isJoinEq(c, cur, alias):
			joinConds = append(joinConds, c.(sqlast.Cmp))
		default:
			// applyCovered filters by it once the frame covers its aliases.
			pending = append(pending, c)
		}
	}

	rows := rel.rows
	if len(local) > 0 {
		pred, err := bindAll(local, solo, true)
		if err != nil {
			return nil, nil, err
		}
		if rows, err = ex.filter(rows, pred); err != nil {
			return nil, nil, err
		}
	}

	if cur == nil {
		return &frame{bindings: solo.bindings, rows: rows, width: solo.width}, pending, nil
	}

	refs := slices.Clip(need)
	for _, c := range pending {
		walkRefs(c, func(c sqlast.ColRef) { refs = append(refs, c) })
	}
	next, src := cur.extend(alias, rel.cols, refs)
	arena := rowArena{width: next.width, src: src}
	keys, err := bindJoinKeys(joinConds, cur, solo, alias)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case len(keys) == 0 || ex.opts.ForceNestedLoop:
		next.rows, err = ex.nestedLoopJoin(cur, rows, keys, arena)
	case !ex.opts.DisableIndexes && len(keys) == 1 && len(local) == 0 && rel.table != nil && rel.table.HasIndex(keys[0].column):
		// Index probe: a single equality join against an unfiltered base
		// table with a persistent index on the join column avoids building
		// the per-query hash table.
		next.rows, err = ex.indexJoin(cur, rel.table, keys[0], arena)
	default:
		next.rows, err = ex.hashJoin(cur, rows, keys, arena)
	}
	if err != nil {
		return nil, nil, err
	}
	return ex.applyCovered(next, pending)
}

// applyCovered filters the frame by every pending conjunct that is now fully
// evaluable, returning the filtered frame and the rest pending.
func (ex *executor) applyCovered(f *frame, pending []sqlast.Expr) (*frame, []sqlast.Expr, error) {
	var apply, rest []sqlast.Expr
	for _, c := range pending {
		aliases := exprAliases(c, map[string]bool{})
		all := true
		for a := range aliases {
			if !f.hasAlias(a) {
				all = false
				break
			}
		}
		if all {
			apply = append(apply, c)
		} else {
			rest = append(rest, c)
		}
	}
	if len(apply) == 0 {
		return f, rest, nil
	}
	pred, err := bindAll(apply, f, true)
	if err != nil {
		return nil, nil, err
	}
	rows, err := ex.filter(f.rows, pred)
	if err != nil {
		return nil, nil, err
	}
	return &frame{bindings: f.bindings, rows: rows, width: f.width}, rest, nil
}

// filter returns the rows pred accepts, polling for cancellation.
func (ex *executor) filter(rows []relational.Row, pred predicate) ([]relational.Row, error) {
	var out []relational.Row
	countdown := cancelCheckInterval
	for _, r := range rows {
		if err := ex.tick(&countdown); err != nil {
			return nil, err
		}
		if pred(r) {
			out = append(out, r)
		}
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

func bindJoinKeys(conds []sqlast.Cmp, cur, solo *frame, alias string) ([]joinKey, error) {
	keys := make([]joinKey, len(conds))
	for i, c := range conds {
		l, r := c.Left.(sqlast.ColRef), c.Right.(sqlast.ColRef)
		if l.Table == alias { // normalize: l on current frame, r on new alias
			l, r = r, l
		}
		li, err := cur.find(l.Table, l.Column)
		if err != nil {
			return nil, err
		}
		ri, err := solo.find(r.Table, r.Column)
		if err != nil {
			return nil, err
		}
		keys[i] = joinKey{left: li, right: ri, column: r.Column}
	}
	return keys, nil
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

// rowArena carves a join's combined rows from shared chunks. Each row is
// capacity-capped, so an append to one row copies instead of writing into
// its neighbour. src picks the kept columns from the left row followed by
// the right one; nil keeps them all.
type rowArena struct {
	width, chunk int
	src          []int
	free         []relational.Value
}

func (a *rowArena) join(l, r relational.Row) relational.Row {
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
func (ex *executor) nestedLoopJoin(cur *frame, rightRows []relational.Row, keys []joinKey, arena rowArena) ([]relational.Row, error) {
	var out []relational.Row
	countdown := cancelCheckInterval
	for _, lrow := range cur.rows {
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

// indexJoin probes a persistent table index for a single equi-join.
func (ex *executor) indexJoin(cur *frame, t *relational.Table, k joinKey, arena rowArena) ([]relational.Row, error) {
	var out, matches []relational.Row
	countdown := cancelCheckInterval
	for _, lrow := range cur.rows {
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
func (ex *executor) hashJoin(cur *frame, rightRows []relational.Row, keys []joinKey, arena rowArena) ([]relational.Row, error) {
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
	for _, lrow := range cur.rows {
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

// splitConjuncts flattens a WHERE expression into top-level conjuncts.
func splitConjuncts(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(sqlast.And); ok {
		var out []sqlast.Expr
		for _, k := range a.Kids {
			out = append(out, splitConjuncts(k)...)
		}
		return out
	}
	return []sqlast.Expr{e}
}

// exprAliases collects the table aliases an expression references.
func exprAliases(e sqlast.Expr, acc map[string]bool) map[string]bool {
	walkRefs(e, func(c sqlast.ColRef) { acc[c.Table] = true })
	return acc
}

// walkRefs calls visit on every column reference in e.
func walkRefs(e sqlast.Expr, visit func(sqlast.ColRef)) {
	switch e := e.(type) {
	case sqlast.ColRef:
		visit(e)
	case sqlast.Cmp:
		walkRefs(e.Left, visit)
		walkRefs(e.Right, visit)
	case sqlast.In:
		walkRefs(e.Left, visit)
	case sqlast.IsNull:
		walkRefs(e.Left, visit)
	case sqlast.And:
		for _, k := range e.Kids {
			walkRefs(k, visit)
		}
	case sqlast.Or:
		for _, k := range e.Kids {
			walkRefs(k, visit)
		}
	}
}

func onlyAlias(aliases map[string]bool, alias string) bool {
	for a := range aliases {
		if a != alias {
			return false
		}
	}
	return len(aliases) > 0
}

// isJoinEq reports whether c is `left.col = right.col` connecting the current
// frame to the new alias.
func isJoinEq(e sqlast.Expr, cur *frame, alias string) bool {
	c, ok := e.(sqlast.Cmp)
	if !ok || c.Op != sqlast.OpEq {
		return false
	}
	l, lok := c.Left.(sqlast.ColRef)
	r, rok := c.Right.(sqlast.ColRef)
	if !lok || !rok {
		return false
	}
	if l.Table == alias && cur.hasAlias(r.Table) {
		return true
	}
	if r.Table == alias && cur.hasAlias(l.Table) {
		return true
	}
	return false
}

// predicate is a WHERE conjunct bound to frame offsets.
type predicate func(relational.Row) bool

// operand is a scalar bound to a frame offset, or a literal when idx < 0.
type operand struct {
	idx int
	lit relational.Value
}

func (o operand) get(row relational.Row) relational.Value {
	if o.idx < 0 {
		return o.lit
	}
	return row[o.idx]
}

func bindOperand(e sqlast.Expr, f *frame) (operand, error) {
	switch e := e.(type) {
	case sqlast.ColRef:
		idx, err := f.find(e.Table, e.Column)
		return operand{idx: idx}, err
	case sqlast.Lit:
		return operand{idx: -1, lit: e.Value}, nil
	}
	return operand{}, fmt.Errorf("engine: expression %T is not scalar", e)
}

// bindPred resolves every column reference in e against f once, so the row
// loops applying the result compare values at fixed offsets.
func bindPred(e sqlast.Expr, f *frame) (predicate, error) {
	switch e := e.(type) {
	case sqlast.Cmp:
		l, err := bindOperand(e.Left, f)
		if err != nil {
			return nil, err
		}
		r, err := bindOperand(e.Right, f)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case sqlast.OpEq:
			return func(row relational.Row) bool { return l.get(row).Equal(r.get(row)) }, nil
		case sqlast.OpNe:
			return func(row relational.Row) bool {
				a, b := l.get(row), r.get(row)
				return !a.IsNull() && !b.IsNull() && !a.Equal(b)
			}, nil
		}
		return nil, fmt.Errorf("engine: unknown comparison op %v", e.Op)
	case sqlast.In:
		l, err := bindOperand(e.Left, f)
		if err != nil {
			return nil, err
		}
		return func(row relational.Row) bool {
			v := l.get(row)
			for _, lit := range e.List {
				if v.Equal(lit.Value) {
					return true
				}
			}
			return false
		}, nil
	case sqlast.IsNull:
		l, err := bindOperand(e.Left, f)
		if err != nil {
			return nil, err
		}
		return func(row relational.Row) bool { return l.get(row).IsNull() }, nil
	case sqlast.And:
		return bindAll(e.Kids, f, true)
	case sqlast.Or:
		return bindAll(e.Kids, f, false)
	}
	return nil, fmt.Errorf("engine: expression %T is not a predicate", e)
}

// bindAll binds the conjunction (all) or the disjunction (!all) of es: the
// first kid whose verdict differs from all decides, and otherwise all does.
func bindAll(es []sqlast.Expr, f *frame, all bool) (predicate, error) {
	kids := make([]predicate, len(es))
	for i, e := range es {
		var err error
		if kids[i], err = bindPred(e, f); err != nil {
			return nil, err
		}
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return func(row relational.Row) bool {
		for _, k := range kids {
			if k(row) != all {
				return !all
			}
		}
		return all
	}, nil
}
