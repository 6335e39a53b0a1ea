package engine

import (
	"cmp"
	"fmt"
	"slices"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// plan is a query compiled against a store's catalog: names resolved,
// conjuncts bound to row offsets, joins ordered and laid out. It is
// immutable; concurrent runs and every shard of a composite share one.
type plan struct {
	root  *queryPlan
	slots int // the CTE slots a run binds
	// tables are the schemas of the tables the plan reads, at compile time.
	tables []*relational.TableSchema
}

// queryPlan is a compiled query: its CTEs in definition order, then its
// UNION ALL branches, whose columns are cols.
type queryPlan struct {
	ctes []*ctePlan
	sels []*selectPlan
	cols []string
}

// ctePlan is a compiled CTE, whose rows a run binds to slot: body's, and for
// a recursive CTE rec's, rerun against each round's delta until it is empty.
type ctePlan struct {
	name      string
	slot      int
	body, rec *queryPlan
}

// selectPlan is a compiled SELECT: its join steps in order, its projection.
type selectPlan struct {
	steps []joinStep
	projs []operand
	cols  []string
}

// joinStep reads one FROM item, the plan's table number table or (table < 0)
// the CTE in slot. local filters its rows; keys join them to the rows before
// (probe: through an index on the one key); arena lays out the joined rows,
// and covered filters them by the conjuncts they are the first to cover.
type joinStep struct {
	table, slot    int
	local, covered predicate
	keys           []joinKey
	probe          bool
	arena          rowArena
}

// compiled returns q's plan and the tables it reads in store: the plan
// memoised on q when store's tables have the columns it was compiled
// against, else a fresh one, memoised only if q has none. A store of another
// layout never replaces the plan, and no plan outlives its query.
func compiled(store *relational.Store, q *sqlast.Query) (*plan, []*relational.Table, error) {
	memo, _ := q.Compiled().(*plan)
	if memo != nil {
		if tables := memo.bind(store); tables != nil {
			return memo, tables, nil
		}
	}
	c := &compiler{store: store}
	root, err := c.query(q)
	if err != nil {
		return nil, nil, err
	}
	pl := &plan{root: root, slots: c.slots, tables: c.schemas}
	if memo == nil {
		q.SetCompiled(pl)
	}
	return pl, c.tables, nil
}

// bind returns the plan's tables as store holds them, or nil when one is
// missing or its columns differ from those the plan was compiled against.
func (pl *plan) bind(store *relational.Store) []*relational.Table {
	tables := make([]*relational.Table, len(pl.tables))
	for i, ts := range pl.tables {
		if tables[i] = store.Table(ts.Name); tables[i] == nil || !slices.Equal(tables[i].Schema().Columns, ts.Columns) {
			return nil
		}
	}
	return tables
}

type compiler struct {
	store   *relational.Store
	scope   []*ctePlan          // the CTEs in scope, innermost last
	tables  []*relational.Table // the tables read so far
	schemas []*relational.TableSchema
	slots   int
}

func (c *compiler) query(q *sqlast.Query) (*queryPlan, error) {
	// A query's CTEs are in scope for its later CTEs and its body only.
	defer func(outer int) { c.scope = c.scope[:outer] }(len(c.scope))
	qp := &queryPlan{}
	for _, cte := range q.With {
		if slices.ContainsFunc(c.scope, func(d *ctePlan) bool { return d.name == cte.Name }) {
			return nil, fmt.Errorf("engine: duplicate cte %q", cte.Name)
		}
		cp, err := c.cte(cte)
		if err != nil {
			return nil, err
		}
		qp.ctes, c.scope = append(qp.ctes, cp), append(c.scope, cp)
	}
	return qp, c.selects(qp, q.Selects)
}

// cte compiles one CTE. A recursive one's body is its branches that do not
// read its name.
func (c *compiler) cte(cte sqlast.CTE) (*ctePlan, error) {
	cp := &ctePlan{name: cte.Name, slot: c.slots}
	c.slots++
	body, rec := cte.Body, []*sqlast.Select(nil)
	if cte.Recursive {
		if len(body.With) > 0 {
			return nil, fmt.Errorf("engine: nested WITH inside recursive cte %q is not supported", cte.Name)
		}
		body = &sqlast.Query{}
		for _, s := range cte.Body.Selects {
			if slices.ContainsFunc(s.From, func(f sqlast.FromItem) bool { return f.Source == cte.Name }) {
				rec = append(rec, s)
			} else {
				body.Selects = append(body.Selects, s)
			}
		}
	}
	var err error
	if cp.body, err = c.query(body); err != nil || rec == nil {
		return cp, err
	}
	if cp.body.cols == nil {
		return nil, fmt.Errorf("engine: recursive cte %q has no base branch", cte.Name)
	}
	c.scope = append(c.scope, cp)
	defer func() { c.scope = c.scope[:len(c.scope)-1] }()
	cp.rec = new(queryPlan)
	if err = c.selects(cp.rec, rec); err == nil && len(cp.rec.cols) != len(cp.body.cols) {
		err = fmt.Errorf("engine: recursive cte %q: arity mismatch in recursive branch", cte.Name)
	}
	return cp, err
}

// selects compiles a UNION ALL's branches into qp in branch order, so the
// first failing branch's error is the one reported.
func (c *compiler) selects(qp *queryPlan, sels []*sqlast.Select) error {
	for i, s := range sels {
		sp, err := c.selectPlan(s)
		if err != nil {
			return err
		}
		if i == 0 {
			qp.cols = sp.cols
		} else if len(sp.cols) != len(qp.cols) {
			return fmt.Errorf("engine: union all arity mismatch: %d vs %d", len(qp.cols), len(sp.cols))
		}
		qp.sels = append(qp.sels, sp)
	}
	return nil
}

// fromItem is a FROM item resolved as a joinStep reads it; t is the table
// in the compiling store, nil for a CTE.
type fromItem struct {
	alias       string
	cols        []string
	table, slot int
	t           *relational.Table
}

// source resolves a name to the innermost CTE in scope, else to a table.
func (c *compiler) source(name string) (fromItem, error) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if d := c.scope[i]; d.name == name {
			return fromItem{cols: d.body.cols, table: -1, slot: d.slot}, nil
		}
	}
	i := slices.IndexFunc(c.tables, func(t *relational.Table) bool { return t.Schema().Name == name })
	if i < 0 {
		t := c.store.Table(name)
		if t == nil {
			return fromItem{}, fmt.Errorf("engine: unknown table or cte %q", name)
		}
		i, c.tables, c.schemas = len(c.tables), append(c.tables, t), append(c.schemas, t.Schema())
	}
	it := fromItem{table: i, t: c.tables[i], cols: make([]string, len(c.schemas[i].Columns))}
	for j, col := range c.schemas[i].Columns {
		it.cols[j] = col.Name
	}
	return it, nil
}

func (c *compiler) selectPlan(s *sqlast.Select) (*selectPlan, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("engine: select with empty FROM")
	}
	items := make([]fromItem, len(s.From))
	for i, f := range s.From {
		a := cmp.Or(f.Alias, f.Source)
		if slices.ContainsFunc(s.From[:i], func(g sqlast.FromItem) bool { return cmp.Or(g.Alias, g.Source) == a }) {
			return nil, fmt.Errorf("engine: duplicate alias %s", a)
		}
		it, err := c.source(f.Source)
		if err != nil {
			return nil, err
		}
		it.alias = a
		items[i] = it
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

	sp := &selectPlan{steps: make([]joinStep, len(items))}
	var cur *frame
	pending := sqlast.Conjuncts(s.Where)
	var order [8]int
	for k, i := range joinOrder(items, pending, order[:0]) {
		var err error
		if sp.steps[k], cur, pending, err = compileStep(cur, items[i], pending, need, k == len(items)-1); err != nil {
			return nil, err
		}
	}

	// projs is never nil, so a block of finished rows (projs nil) is told
	// apart from one projecting no columns.
	sp.projs, sp.cols = make([]operand, 0, len(s.Cols)), make([]string, 0, len(s.Cols))
	for _, item := range s.Cols {
		if item.Star {
			bi := slices.IndexFunc(cur.bindings, func(b binding) bool { return b.alias == item.StarTable })
			if bi < 0 {
				return nil, fmt.Errorf("engine: star over unknown alias %s", item.StarTable)
			}
			for i, c := range cur.bindings[bi].cols {
				sp.projs = append(sp.projs, operand{idx: cur.bindings[bi].offset + i})
				sp.cols = append(sp.cols, c)
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
		sp.projs = append(sp.projs, p)
		sp.cols = append(sp.cols, name)
	}
	return sp, nil
}

// compileStep compiles joining the frame cur (nil at first) with it: its
// local filter, its join keys to cur, and the filter of the conjuncts the
// joined frame is the first to cover (at the last step, all the rest). It
// returns the step, the joined frame (keeping the columns that need or a
// pending conjunct reads, see extend) and the conjuncts still pending.
func compileStep(cur *frame, it fromItem, conjuncts []sqlast.Expr, need []sqlast.ColRef, last bool) (joinStep, *frame, []sqlast.Expr, error) {
	st := joinStep{table: it.table, slot: it.slot}
	// solo lays out it alone, to bind its filter and join keys: it stays on
	// the stack, and the first step copies it to the heap as the joined frame.
	one := [1]binding{{alias: it.alias, cols: it.cols}}
	solo := &frame{bindings: one[:], width: len(it.cols)}
	var local, pending, covered, rest []sqlast.Expr
	var keyErr error
	for _, c := range conjuncts {
		l, r, eq := equiJoin(c)
		if l.Table == it.alias { // normalize: l on cur, r on it
			l, r = r, l
		}
		switch {
		case onlyAlias(c, it.alias):
			local = append(local, c)
		case eq && cur != nil && r.Table == it.alias && cur.hasAlias(l.Table):
			li, lerr := cur.find(l.Table, l.Column)
			ri, rerr := solo.find(r.Table, r.Column)
			st.keys = append(st.keys, joinKey{left: li, right: ri, column: r.Column})
			keyErr = cmp.Or(keyErr, lerr, rerr)
		default:
			pending = append(pending, c)
		}
	}
	var err error
	st.local, err = bindFilter(local, solo)
	err = cmp.Or(err, keyErr)
	next := cur
	if cur == nil {
		next = &frame{bindings: []binding{one[0]}, width: solo.width}
	} else if err == nil {
		refs := slices.Clip(need)
		for _, c := range pending {
			walkRefs(c, func(c sqlast.ColRef) { refs = append(refs, c) })
		}
		var src []int
		next, src = cur.extend(it.alias, it.cols, refs)
		st.arena = newRowArena(cur.width, next.width, src)
		st.probe = len(st.keys) == 1 && len(local) == 0 && it.t != nil
	}
	for _, c := range pending {
		covers := true
		walkRefs(c, func(r sqlast.ColRef) { covers = covers && next.hasAlias(r.Table) })
		if last || covers {
			covered = append(covered, c)
		} else {
			rest = append(rest, c)
		}
	}
	if err == nil {
		st.covered, err = bindFilter(covered, next)
	}
	return st, next, rest, err
}

// joinOrder returns the order in which a SELECT's FROM items join, parents
// first: from the first item no other reaches through an index, or else only
// through its primary key (a parent, which its children reach by its id), it
// takes over and over the first item an index probe reaches from those
// joined, else the first an equality joins to them, else the next one. The
// SQL text, and so the answer multiset, does not change. It appends the
// order to order; on SELECTs of a few items it allocates nothing else.
func joinOrder(items []fromItem, conj []sqlast.Expr, order []int) []int {
	if len(items) == 1 {
		return append(order, 0)
	}
	// An edge is an equality on item i's col and a column of item j.
	type edge struct {
		i, j int
		col  string
	}
	var edgeBuf [16]edge
	var flagBuf [2 * 8]bool
	edges, flags := edgeBuf[:0], flagBuf[:]
	if len(items) > len(flagBuf)/2 {
		flags = make([]bool, 2*len(items))
	}
	filtered, joined := flags[:len(items)], flags[len(items):2*len(items)]
	for _, c := range conj {
		l, r, eq := equiJoin(c)
		i := slices.IndexFunc(items, func(o fromItem) bool { return o.alias == l.Table })
		j := slices.IndexFunc(items, func(o fromItem) bool { return o.alias == r.Table })
		if eq && i >= 0 && j >= 0 {
			edges = append(edges, edge{i, j, l.Column}, edge{j, i, r.Column})
		}
		for k, it := range items {
			filtered[k] = filtered[k] || onlyAlias(c, it.alias)
		}
	}
	// reach reports how the items for which in holds reach item i, as if i
	// were unfiltered: a probe needs exactly one equality, on an indexed column.
	reach := func(i int, in func(int) bool) int {
		keys, col, t := 0, "", items[i].t
		for _, e := range edges {
			if e.i == i && in(e.j) {
				keys, col = keys+1, e.col
			}
		}
		switch {
		case keys == 0:
			return reachNone
		case keys > 1 || t == nil || !t.HasIndex(col):
			return reachHash
		case col == t.Schema().PrimaryKey:
			return reachKey
		}
		return reachProbe
	}
	first, least := 0, reachProbe+1
	for i := range items {
		most := reachHash
		for j := range items {
			if j != i {
				most = max(most, reach(i, func(k int) bool { return k == j }))
			}
		}
		if most < least {
			first, least = i, most
		}
	}
	base := len(order)
	order, joined[first] = append(order, first), true
	for len(order)-base < len(items) {
		next, best := 0, -1
		for i := range items {
			if joined[i] {
				continue
			}
			r := reach(i, func(k int) bool { return joined[k] })
			if filtered[i] { // a filtered item is hash-joined, never probed
				r = min(r, reachHash)
			}
			if r = min(r, reachKey); r > best {
				next, best = i, r
			}
		}
		order, joined[next] = append(order, next), true
	}
	return order
}

// How the items joined so far reach another (see joinOrder).
const (
	reachNone  = iota // no equality joins them
	reachHash         // equalities join them, but no index probe serves
	reachKey          // a probe of the item's primary key
	reachProbe        // a probe of another index of the item
)

// binding maps an alias to its column layout inside the composite row built
// during join processing.
type binding struct {
	alias  string
	cols   []string
	offset int
}

// frame is the layout of the rows a SELECT's joins have built so far.
type frame struct {
	bindings []binding
	width    int
}

// find returns the offset of column, of alias table or ("") of any alias.
func (f *frame) find(table, column string) (int, error) {
	found := -1
	for _, b := range f.bindings {
		if table != "" && b.alias != table {
			continue
		}
		for i, c := range b.cols {
			if c == column && found >= 0 {
				return -1, fmt.Errorf("engine: ambiguous column %s", column)
			} else if c == column {
				found = b.offset + i
			}
		}
		if table != "" && found < 0 {
			return -1, fmt.Errorf("engine: alias %s has no column %s", table, column)
		}
	}
	switch {
	case found >= 0:
		return found, nil
	case table != "":
		return -1, fmt.Errorf("engine: unknown alias %s", table)
	}
	return -1, fmt.Errorf("engine: unknown column %s", column)
}

func (f *frame) hasAlias(alias string) bool {
	return slices.ContainsFunc(f.bindings, func(b binding) bool { return b.alias == alias })
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

// onlyAlias reports whether e reads columns of alias and of no other.
func onlyAlias(e sqlast.Expr, alias string) bool {
	mine, other := false, false
	walkRefs(e, func(c sqlast.ColRef) {
		mine, other = mine || c.Table == alias, other || c.Table != alias
	})
	return mine && !other
}

// equiJoin returns the columns of e when it is `l.col = r.col` over two
// aliases.
func equiJoin(e sqlast.Expr) (l, r sqlast.ColRef, ok bool) {
	c, ok := e.(sqlast.Cmp)
	if !ok || c.Op != sqlast.OpEq {
		return l, r, false
	}
	l, lok := c.Left.(sqlast.ColRef)
	r, rok := c.Right.(sqlast.ColRef)
	return l, r, lok && rok && l.Table != r.Table
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
		l, lerr := bindOperand(e.Left, f)
		r, rerr := bindOperand(e.Right, f)
		if err := cmp.Or(lerr, rerr); err != nil {
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
			return slices.ContainsFunc(e.List, func(lit sqlast.Lit) bool { return v.Equal(lit.Value) })
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

// bindFilter binds the conjunction of es, or returns nil when es is empty.
func bindFilter(es []sqlast.Expr, f *frame) (predicate, error) {
	if len(es) == 0 {
		return nil, nil
	}
	return bindAll(es, f, true)
}

// bindAll binds the conjunction (all) or the disjunction (!all) of es: the
// first kid whose verdict differs from all decides, and otherwise all does.
func bindAll(es []sqlast.Expr, f *frame, all bool) (predicate, error) {
	if len(es) == 1 {
		return bindPred(es[0], f)
	}
	kids := make([]predicate, len(es))
	for i, e := range es {
		var err error
		if kids[i], err = bindPred(e, f); err != nil {
			return nil, err
		}
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
