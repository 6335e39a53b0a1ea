package engine

import (
	"context"
	"fmt"
	"slices"

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
// AppendRows writes the answer rows wherever the caller wants them.
func Prepare(ctx context.Context, store *relational.Store, q *sqlast.Query, opts Options) (*Prepared, error) {
	ex := &executor{store: store, ctes: map[string]*Result{}, opts: opts, done: ctx.Done(), ctx: ctx}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	p, err := ex.query(q)
	if err != nil {
		return nil, err
	}
	p.Work = ex.work
	return p, nil
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

func (ex *executor) query(q *sqlast.Query) (*Prepared, error) {
	// Materialize CTEs in order; later CTEs and the main body may reference
	// earlier ones.
	defined := make([]string, 0, len(q.With))
	defer func() {
		for _, name := range defined {
			delete(ex.ctes, name)
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
			res, err = ex.materialize(cte.Body)
		}
		if err != nil {
			return nil, err
		}
		ex.ctes[cte.Name] = res
		defined = append(defined, cte.Name)
	}

	return ex.evalSelects(q.Selects)
}

// evalSelects evaluates a UNION ALL's branches in branch order, stopping at
// the first error, and returns them unprojected.
func (ex *executor) evalSelects(sels []*sqlast.Select) (*Prepared, error) {
	p := &Prepared{blocks: make([]block, len(sels))}
	for i, s := range sels {
		b, err := ex.safeSelect(s)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.Cols = b.cols
		} else if len(b.cols) != len(p.Cols) {
			return nil, fmt.Errorf("engine: union all arity mismatch: %d vs %d", len(p.Cols), len(b.cols))
		}
		p.blocks[i] = b
	}
	return p, nil
}

// safeSelect evaluates one UNION branch with the serving-path protections:
// a cancellation check before starting and panic containment, so one
// poisoned branch fails the query with an error instead of killing the
// serving process.
func (ex *executor) safeSelect(s *sqlast.Select) (b block, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: panic evaluating union branch: %v", r)
		}
	}()
	if err := ex.cancelled(); err != nil {
		return block{}, err
	}
	return ex.selectBlock(s)
}

// materialize evaluates q into a Result, for a CTE's rows.
func (ex *executor) materialize(q *sqlast.Query) (*Result, error) {
	p, err := ex.query(q)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Cols, Rows: p.AppendRows(nil)}, nil
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
		return ex.materialize(cte.Body)
	}

	seed, err := ex.evalSelects(base)
	if err != nil {
		return nil, err
	}
	if seed.Cols == nil {
		return nil, fmt.Errorf("engine: recursive cte %q has no base branch", cte.Name)
	}
	acc := &Result{Cols: seed.Cols, Rows: seed.AppendRows(nil)}
	if err := ex.charge(len(acc.Rows)); err != nil {
		return nil, err
	}

	maxRounds := MaxRecursionRounds
	if ex.opts.MaxCTEIterations > 0 {
		maxRounds = ex.opts.MaxCTEIterations
	}
	// Each round binds the name to the previous round's delta, the
	// accumulator's tail, and projects onto the accumulator's end; unbind
	// the name however the loop ends.
	defer delete(ex.ctes, cte.Name)
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
		ex.ctes[cte.Name] = &Result{Cols: acc.Cols, Rows: delta}
		next, err := ex.evalSelects(rec)
		if err != nil {
			return nil, err
		}
		if len(next.Cols) != len(acc.Cols) {
			return nil, fmt.Errorf("engine: recursive cte %q: arity mismatch in recursive branch", cte.Name)
		}
		if err := ex.charge(next.Len()); err != nil {
			return nil, err
		}
		n := len(acc.Rows)
		acc.Rows = next.AppendRows(acc.Rows)
		delta = acc.Rows[n:]
	}
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
	// owned is set when this SELECT built rows (a filter or a join), so the
	// projection may rewrite the slice in place; a table's or CTE's own row
	// slice is never written.
	owned bool
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

func (ex *executor) selectBlock(s *sqlast.Select) (block, error) {
	if len(s.From) == 0 {
		return block{}, fmt.Errorf("engine: select with empty FROM")
	}
	seen := map[string]bool{}
	for _, f := range s.From {
		a := aliasOf(f)
		if seen[a] {
			return block{}, fmt.Errorf("engine: duplicate alias %s", a)
		}
		seen[a] = true
	}

	// Joins carry only the columns read after them: need lists those the
	// projection reads.
	var need []sqlast.ColRef
	for _, item := range s.Cols {
		if item.Star {
			need = append(need, sqlast.ColRef{Table: item.StarTable, Column: "*"})
		} else {
			walkRefs(item.Expr, func(c sqlast.ColRef) { need = append(need, c) })
		}
	}

	// Build left-deep join in FROM order.
	var cur *frame
	remaining := sqlast.Conjuncts(s.Where)
	for _, f := range s.From {
		rel, err := ex.resolve(f.Source)
		if err != nil {
			return block{}, err
		}
		if cur, remaining, err = ex.joinStep(cur, rel, aliasOf(f), remaining, need); err != nil {
			return block{}, err
		}
	}

	// Residual predicates (e.g. ORs across aliases).
	if len(remaining) > 0 {
		pred, err := bindAll(remaining, cur, true)
		if err != nil {
			return block{}, err
		}
		rows, err := ex.filter(cur.rows, pred)
		if err != nil {
			return block{}, err
		}
		cur = &frame{bindings: cur.bindings, rows: rows, width: cur.width, owned: true}
	}

	// Projection, bound here and run by AppendRows. projs is never nil, so
	// a block of finished rows (projs nil) is told apart from one projecting
	// no columns.
	projs := make([]operand, 0, len(s.Cols))
	var names []string
	for _, item := range s.Cols {
		if item.Star {
			bi := slices.IndexFunc(cur.bindings, func(b binding) bool { return b.alias == item.StarTable })
			if bi < 0 {
				return block{}, fmt.Errorf("engine: star over unknown alias %s", item.StarTable)
			}
			for i, c := range cur.bindings[bi].cols {
				projs = append(projs, operand{idx: cur.bindings[bi].offset + i})
				names = append(names, c)
			}
			continue
		}
		p, err := bindOperand(item.Expr, cur)
		if err != nil {
			return block{}, err
		}
		name := item.As
		if c, ok := item.Expr.(sqlast.ColRef); ok && name == "" {
			name = c.Column
		}
		projs = append(projs, p)
		names = append(names, name)
	}
	if err := ex.charge(len(cur.rows)); err != nil {
		return block{}, err
	}
	return block{cols: names, rows: cur.rows, owned: cur.owned, projs: projs}, nil
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
		ex.work.Scanned += len(rel.rows)
		return &frame{bindings: solo.bindings, rows: rows, width: solo.width, owned: len(local) > 0}, pending, nil
	}

	refs := slices.Clip(need)
	for _, c := range pending {
		walkRefs(c, func(c sqlast.ColRef) { refs = append(refs, c) })
	}
	next, src := cur.extend(alias, rel.cols, refs)
	arena := newRowArena(cur.width, next.width, src)
	keys, err := bindJoinKeys(joinConds, cur, solo, alias)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case len(keys) == 0 || ex.opts.ForceNestedLoop:
		ex.work.Scanned += len(rel.rows)
		next.rows, err = ex.nestedLoopJoin(cur, rows, keys, arena)
	case !ex.opts.DisableIndexes && len(keys) == 1 && len(local) == 0 && rel.table != nil && rel.table.HasIndex(keys[0].column):
		// Index probe: a single equality join against an unfiltered base
		// table with a persistent index on the join column avoids building
		// the per-query hash table.
		next.rows, err = ex.indexJoin(cur, rel.table, keys[0], arena)
	default:
		ex.work.Scanned += len(rel.rows)
		next.rows, err = ex.hashJoin(cur, rows, keys, arena)
	}
	if err != nil {
		return nil, nil, err
	}
	next.owned = true
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
	return &frame{bindings: f.bindings, rows: rows, width: f.width, owned: true}, rest, nil
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

// indexJoin probes a persistent table index for a single equi-join. Its
// output is allocated once, for the left rows times the index's mean bucket
// size, rounded up, and at most one row per right row, so a selective or
// skewed probe cannot over-allocate past the table.
func (ex *executor) indexJoin(cur *frame, t *relational.Table, k joinKey, arena rowArena) ([]relational.Row, error) {
	var out, matches []relational.Row
	if rows, keys := t.IndexShape(k.column); keys > 0 {
		out = make([]relational.Row, 0, min(rows, (len(cur.rows)*rows+keys-1)/keys))
	}
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
