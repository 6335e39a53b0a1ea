package stats

import (
	"fmt"
	"strings"

	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// Cost model constants. Costs are abstract row-operation units, not
// nanoseconds: the chooser only ever compares costs of alternative plans for
// the same query, so only ratios matter. The weights mirror where the
// engine actually spends time (see internal/engine): scanning and filtering
// a relation touches every row once, hash builds touch every build row,
// index and hash probes touch every probe row, and every join output row is
// a fresh slice allocation plus two copies — the dominant term, hence the
// higher weight.
const (
	costScanRow  = 1.0 // filter pass over a resolved relation
	costBuildRow = 1.5 // hash-table insert of one build-side row
	costProbeRow = 1.0 // one index or hash probe
	costOutRow   = 2.0 // one materialized join-output or projected row
	costBranch   = 48  // fixed per SELECT branch (setup, bindings, merge)
	costCTERound = 32  // fixed per recursive fixpoint round
)

// FixpointDepth is the estimator's recursive-CTE depth heuristic: instead
// of solving the fixpoint, it assumes the per-round row multiplier observed
// on the first round persists for at most this many rounds (shredded XML is
// acyclic, so real recursion depth is the document depth — small).
const FixpointDepth = 8

// defaultRows is assumed for relations with no statistics.
const defaultRows = 1000

// unknownSel is the selectivity of predicates the estimator cannot reason
// about (residual ORs across aliases, comparisons of two columns of
// unstatted relations).
const unknownSel = 0.25

// Decision thresholds. Calibrated against the repo's benchmark suite (see
// EXPERIMENTS.md): the margins are deliberately asymmetric — a knob is
// flipped away from the baseline only when the estimate clearly pays,
// because near-ties are noise and the baseline is the measured-safe choice.
const (
	// PlanMargin: prefer the pruned translation only when its estimated
	// cost is below this fraction of the baseline's. The regressing headline
	// cases (BENCH_xmlsql.json speedups 0.86–0.97x) all prune a join with a
	// one-row relation — estimated costs within a few percent — while the
	// real wins drop whole join chains (≤ 0.7x estimated). 0.85 splits them.
	PlanMargin = 0.85
	// FactorMargin: adopt the prefix-factored rewrite only when it is
	// estimated at least this much cheaper.
	FactorMargin = 0.9
	// ReorderMargin: adopt a greedy join reorder only when estimated at
	// least this much cheaper than the translator's original order.
	ReorderMargin = 0.9
)

// Estimator estimates cardinalities and costs of sqlast queries against one
// statistics snapshot.
type Estimator struct {
	Stats *Stats
}

// NewEstimator wraps a snapshot (nil is legal: everything defaults).
func NewEstimator(s *Stats) *Estimator { return &Estimator{Stats: s} }

// StepEstimate is the estimated frame state after one FROM item of a
// left-deep join pipeline.
type StepEstimate struct {
	Alias  string  `json:"alias"`
	Source string  `json:"source"`
	InRows float64 `json:"in_rows"` // relation rows after local filters
	Rows   float64 `json:"rows"`    // cumulative frame rows after this join
	Cost   float64 `json:"cost"`    // cumulative branch cost through this step
	Index  bool    `json:"index"`   // expected to run as an index probe
}

// BranchEstimate is the estimate for one SELECT branch.
type BranchEstimate struct {
	CTE   string         `json:"cte,omitempty"` // owning CTE name, "" = main body
	Index int            `json:"index"`         // branch position within its owner
	Rows  float64        `json:"rows"`
	Cost  float64        `json:"cost"`
	Steps []StepEstimate `json:"steps,omitempty"`
}

// CTEEstimate is the estimate for one WITH definition.
type CTEEstimate struct {
	Name      string  `json:"name"`
	Recursive bool    `json:"recursive,omitempty"`
	Rounds    int     `json:"rounds,omitempty"` // fixpoint rounds assumed
	Rows      float64 `json:"rows"`
	Cost      float64 `json:"cost"`
}

// QueryEstimate is the full estimate for one query.
type QueryEstimate struct {
	Rows     float64          `json:"rows"`
	Cost     float64          `json:"cost"`
	CTEs     []CTEEstimate    `json:"ctes,omitempty"`
	Branches []BranchEstimate `json:"branches,omitempty"`
}

// colEst is the estimator's view of one column: distinct values, NULL
// fraction, and (for small domains) exact per-value fractions.
type colEst struct {
	distinct float64
	nullFrac float64
	histFrac map[string]float64 // Value.Key() -> fraction of rows
}

// relEst is the estimator's view of one relation or CTE materialization.
type relEst struct {
	source string // base table name, or CTE name
	rows   float64
	cols   map[string]*colEst
	base   bool // true for base tables (index probes possible)
}

func (e *Estimator) baseRel(name string) *relEst {
	t := e.Stats.Table(name)
	if t == nil {
		return &relEst{source: name, rows: defaultRows, cols: map[string]*colEst{}, base: true}
	}
	r := &relEst{source: name, rows: float64(t.Rows), cols: make(map[string]*colEst, len(t.Columns)), base: true}
	for cn, cs := range t.Columns {
		ce := &colEst{distinct: float64(cs.Distinct)}
		if t.Rows > 0 {
			ce.nullFrac = float64(cs.Nulls) / float64(t.Rows)
			if cs.Histogram != nil {
				ce.histFrac = make(map[string]float64, len(cs.Histogram))
				for k, n := range cs.Histogram {
					ce.histFrac[k] = float64(n) / float64(t.Rows)
				}
			}
		}
		r.cols[cn] = ce
	}
	return r
}

func (r *relEst) col(name string) *colEst {
	if c, ok := r.cols[name]; ok {
		return c
	}
	return nil
}

// Bound is an estimation context with the query's CTEs resolved to
// synthetic relation estimates; it lets callers (the join reorderer, the
// explain printer) estimate individual SELECT blocks under the same CTE
// bindings EstimateQuery used.
type Bound struct {
	est  *Estimator
	ctes map[string]*relEst
	// base memoizes the base-table estimates: a union of join chains names
	// the same few relations in every branch, and they are never mutated.
	base map[string]*relEst
	Est  *QueryEstimate
}

// EstimateQuery estimates q: CTEs in definition order (recursive ones via
// the fixpoint-depth heuristic), then the top-level UNION ALL branches.
func (e *Estimator) EstimateQuery(q *sqlast.Query) *QueryEstimate {
	b, _ := e.Bind(q)
	return b.Est
}

// Bind estimates q and returns the bound context (see Bound). The error is
// advisory: estimation always completes with defaults on unknown shapes.
func (e *Estimator) Bind(q *sqlast.Query) (*Bound, error) {
	b := &Bound{est: e, ctes: map[string]*relEst{}, base: map[string]*relEst{}, Est: &QueryEstimate{}}
	var firstErr error
	for _, cte := range q.With {
		ce, err := b.bindCTE(cte)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		b.Est.CTEs = append(b.Est.CTEs, ce)
		b.Est.Cost += ce.Cost
	}
	for i, s := range q.Selects {
		be := b.SelectEstimate(s)
		be.Index = i
		b.Est.Branches = append(b.Est.Branches, be)
		b.Est.Rows += be.Rows
		b.Est.Cost += be.Cost
	}
	return b, firstErr
}

// bindCTE estimates one WITH definition and binds its name to a synthetic
// relation estimate for later references.
func (b *Bound) bindCTE(cte sqlast.CTE) (CTEEstimate, error) {
	ce := CTEEstimate{Name: cte.Name, Recursive: cte.Recursive}
	if len(cte.Body.With) > 0 {
		return ce, fmt.Errorf("stats: nested WITH inside cte %q not estimated", cte.Name)
	}
	var base, rec []*sqlast.Select
	for _, s := range cte.Body.Selects {
		if cte.Recursive && selectReferences(s, cte.Name) {
			rec = append(rec, s)
		} else {
			base = append(base, s)
		}
	}

	// Base branches.
	var baseRows, baseCost float64
	baseWeights := make([]float64, len(base))
	for i, s := range base {
		be := b.SelectEstimate(s)
		baseRows += be.Rows
		baseCost += be.Cost
		baseWeights[i] = be.Rows
	}
	ce.Rows, ce.Cost = baseRows, baseCost

	allBranches := base
	allWeights := baseWeights
	if len(rec) > 0 && len(base) > 0 {
		// Fixpoint-depth heuristic: evaluate the recursive branches once
		// against a delta of the base size, take the observed per-round row
		// multiplier m, and assume it persists. Rows and per-round cost then
		// follow a geometric series, truncated at FixpointDepth rounds or at
		// convergence (delta < 1 row), whichever comes first.
		b.ctes[cte.Name] = b.synthetic(cte.Name, baseRows, base, baseWeights)
		var roundRows, roundCost float64
		recWeights := make([]float64, len(rec))
		for i, s := range rec {
			be := b.SelectEstimate(s)
			roundRows += be.Rows
			roundCost += be.Cost
			recWeights[i] = be.Rows
		}
		m := 1.0
		if baseRows > 0 {
			m = roundRows / baseRows
		}
		delta := roundRows
		cost := roundCost
		for round := 0; round < FixpointDepth && delta >= 1; round++ {
			ce.Rows += delta
			ce.Cost += cost + costCTERound
			ce.Rounds = round + 1
			delta *= m
			cost *= m
		}
		allBranches = append(append([]*sqlast.Select(nil), base...), rec...)
		allWeights = append(append([]float64(nil), baseWeights...), recWeights...)
	}
	b.ctes[cte.Name] = b.synthetic(cte.Name, ce.Rows, allBranches, allWeights)
	return ce, nil
}

// synthetic builds a relation estimate for a CTE materialization by merging
// the column statistics of every UNION branch, weighted by each branch's
// estimated share of the output. Merging matters: the tag/node columns of
// generated CTEs carry a different literal per branch, and a single-branch
// prototype would estimate zero selectivity for every other branch's value.
func (b *Bound) synthetic(name string, rows float64, branches []*sqlast.Select, weights []float64) *relEst {
	r := &relEst{source: name, rows: rows, cols: map[string]*colEst{}}
	var total float64
	for _, w := range weights {
		total += w
	}
	type mergeAcc struct {
		distinct float64
		nullFrac float64
		hist     map[string]float64
		histOK   bool
	}
	acc := map[string]*mergeAcc{}
	get := func(col string) *mergeAcc {
		a, ok := acc[col]
		if !ok {
			a = &mergeAcc{hist: map[string]float64{}, histOK: true}
			acc[col] = a
		}
		return a
	}
	for bi, proto := range branches {
		w := 1.0 / float64(len(branches))
		if total > 0 {
			w = weights[bi] / total
		}
		fr := b.newFrame()
		for _, f := range proto.From {
			fr.add(f)
		}
		merge := func(col string, ce *colEst) {
			a := get(col)
			if ce == nil {
				a.distinct += rows * w
				a.histOK = false
				return
			}
			a.distinct += ce.distinct
			a.nullFrac += ce.nullFrac * w
			if ce.histFrac == nil {
				a.histOK = false
			} else if a.histOK {
				for k, f := range ce.histFrac {
					a.hist[k] += f * w
				}
			}
		}
		for _, item := range proto.Cols {
			if item.Star {
				if src := fr.rel(item.StarTable); src != nil {
					for cn, ce := range src.cols {
						merge(cn, ce)
					}
				}
				continue
			}
			col := item.As
			switch expr := item.Expr.(type) {
			case sqlast.ColRef:
				if col == "" {
					col = expr.Column
				}
				merge(col, fr.colEst(expr))
			case sqlast.Lit:
				a := get(col)
				a.distinct++
				if a.histOK {
					a.hist[expr.Value.Key()] += w
				}
			}
		}
	}
	for col, a := range acc {
		ce := &colEst{distinct: a.distinct, nullFrac: a.nullFrac}
		if ce.distinct > rows {
			ce.distinct = rows
		}
		if a.histOK && len(a.hist) > 0 {
			ce.histFrac = a.hist
		}
		r.cols[col] = ce
	}
	return r
}

// frame tracks the aliases joined so far during one SELECT's estimation.
type frame struct {
	b       *Bound
	aliases []string
	rels    map[string]*relEst
}

func (b *Bound) newFrame() *frame { return &frame{b: b, rels: map[string]*relEst{}} }

func (b *Bound) resolve(source string) *relEst {
	if r, ok := b.ctes[source]; ok {
		return r
	}
	r, ok := b.base[source]
	if !ok {
		r = b.est.baseRel(source)
		b.base[source] = r
	}
	return r
}

func (f *frame) add(fi sqlast.FromItem) *relEst {
	r := f.b.resolve(fi.Source)
	alias := fi.Alias
	if alias == "" {
		alias = fi.Source
	}
	f.aliases = append(f.aliases, alias)
	f.rels[alias] = r
	return r
}

func (f *frame) has(alias string) bool { _, ok := f.rels[alias]; return ok }

func (f *frame) rel(alias string) *relEst { return f.rels[alias] }

// colEst resolves a column reference against the frame (searching all
// aliases for unqualified references, as the engine does).
func (f *frame) colEst(c sqlast.ColRef) *colEst {
	if c.Table != "" {
		if r := f.rels[c.Table]; r != nil {
			return r.col(c.Column)
		}
		return nil
	}
	for _, a := range f.aliases {
		if ce := f.rels[a].col(c.Column); ce != nil {
			return ce
		}
	}
	return nil
}

// SelectEstimate estimates one SELECT block under the bound CTEs, mirroring
// the engine's left-deep pipeline: FROM items join in order, each conjunct
// is consumed at the first level where it becomes fully evaluable, and
// joins estimate |L ⋈ R| = |L|·|R| / max(d_L, d_R) per equality condition.
func (b *Bound) SelectEstimate(s *sqlast.Select) BranchEstimate {
	return b.pipeline(s, nil, false)
}

// OrderEstimate estimates s as if its FROM items were permuted into the
// given order (a full permutation of FROM indices). The join reorderer uses
// it to score candidate orders without rewriting the AST.
func (b *Bound) OrderEstimate(s *sqlast.Select, order []int) BranchEstimate {
	return b.pipeline(s, order, false)
}

// pipeline walks FROM items in the given order (nil = original), estimating
// the left-deep join. With prefix true, order may cover only a prefix of
// the FROM list: leftover conjuncts are then simply not applied (instead of
// being charged as residual filters), which is what prefix scoring needs.
func (b *Bound) pipeline(s *sqlast.Select, order []int, prefix bool) BranchEstimate {
	be := BranchEstimate{Cost: costBranch}
	conjuncts := splitConjuncts(s.Where)
	fr := b.newFrame()
	var rows float64

	items := s.From
	if order != nil {
		items = make([]sqlast.FromItem, len(order))
		for i, o := range order {
			items[i] = s.From[o]
		}
	}
	remaining := conjuncts
	for i, fi := range items {
		rel := b.resolve(fi.Source)
		alias := fi.Alias
		if alias == "" {
			alias = fi.Source
		}

		// Partition the pending conjuncts exactly like engine.joinStep.
		var local, joinEqs, covered, pending []sqlast.Expr
		for _, c := range remaining {
			aliases := exprAliasSet(c)
			switch {
			case onlyAlias(aliases, alias):
				local = append(local, c)
			case i > 0 && isJoinEq(c, fr, alias):
				joinEqs = append(joinEqs, c)
			case i > 0 && coveredBy(aliases, fr, alias):
				covered = append(covered, c)
			default:
				pending = append(pending, c)
			}
		}

		// Local filters shrink the relation before it joins.
		inRows := rel.rows
		step := StepEstimate{Alias: alias, Source: fi.Source}
		if len(local) > 0 {
			sel := 1.0
			solo := b.newFrame()
			solo.add(fi)
			for _, c := range local {
				sel *= predSel(c, solo)
			}
			inRows = rel.rows * sel
			be.Cost += rel.rows * costScanRow
		}
		step.InRows = inRows

		fr.add(fi)
		switch {
		case i == 0:
			rows = inRows
		case len(joinEqs) > 0:
			// Index probe when the engine would use one: single equality
			// against an unfiltered base table (parentid carries a
			// persistent index after BuildJoinIndexes).
			indexProbe := len(joinEqs) == 1 && len(local) == 0 && rel.base
			out := rows * inRows
			for _, c := range joinEqs {
				cmp := c.(sqlast.Cmp)
				dl, dr := joinSideDistinct(cmp, fr, alias, rows, inRows)
				d := dl
				if dr > d {
					d = dr
				}
				if d < 1 {
					d = 1
				}
				out /= d
			}
			if indexProbe {
				step.Index = true
				be.Cost += rows*costProbeRow + out*costOutRow
			} else {
				be.Cost += inRows*costBuildRow + rows*costProbeRow + out*costOutRow
			}
			rows = out
		default:
			// Cartesian (with any non-equality join predicates as filters).
			out := rows * inRows
			be.Cost += out * costOutRow
			rows = out
		}

		// Conjuncts that became fully evaluable after this join.
		for _, c := range covered {
			rows *= predSel(c, fr)
		}

		step.Rows = rows
		step.Cost = be.Cost
		be.Steps = append(be.Steps, step)
		remaining = pending
	}

	if !prefix {
		// Residual predicates (ORs across aliases, etc.).
		for _, c := range remaining {
			rows *= predSel(c, fr)
		}
		be.Cost += rows * costOutRow // projection / materialization
	}
	be.Rows = rows
	return be
}

// GreedyOrder computes a greedy smallest-intermediate-first join order for
// s: start from the FROM item with the fewest post-filter rows, then
// repeatedly add the equality-connected item minimizing the estimated
// intermediate frame size (fan-out statistics drive the join estimates).
// The second result is false when the select cannot be safely reordered —
// fewer than two FROM items, or no equality-connected candidate at some
// step (reordering would introduce a cartesian product the original order
// avoids).
func (b *Bound) GreedyOrder(s *sqlast.Select) ([]int, bool) {
	n := len(s.From)
	if n < 2 {
		return nil, false
	}
	aliases := make([]string, n)
	for i, f := range s.From {
		aliases[i] = f.Alias
		if aliases[i] == "" {
			aliases[i] = f.Source
		}
	}
	// Equality-join adjacency from the WHERE conjuncts.
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	pos := map[string]int{}
	for i, a := range aliases {
		pos[a] = i
	}
	if len(pos) != n {
		return nil, false // duplicate aliases: the engine rejects these anyway
	}
	for _, c := range splitConjuncts(s.Where) {
		cmp, ok := c.(sqlast.Cmp)
		if !ok || cmp.Op != sqlast.OpEq {
			continue
		}
		l, lok := cmp.Left.(sqlast.ColRef)
		r, rok := cmp.Right.(sqlast.ColRef)
		if !lok || !rok {
			continue
		}
		li, lknown := pos[l.Table]
		ri, rknown := pos[r.Table]
		if lknown && rknown && li != ri {
			adj[li][ri], adj[ri][li] = true, true
		}
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	for len(order) < n {
		best, bestRows, bestCost := -1, 0.0, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if len(order) > 0 {
				connected := false
				for _, o := range order {
					if adj[i][o] {
						connected = true
						break
					}
				}
				if !connected {
					continue
				}
			}
			cand := b.pipeline(s, append(order, i), true)
			if best < 0 || cand.Rows < bestRows || (cand.Rows == bestRows && cand.Cost < bestCost) {
				best, bestRows, bestCost = i, cand.Rows, cand.Cost
			}
		}
		if best < 0 {
			return nil, false // disconnected under equality joins
		}
		order = append(order, best)
		used[best] = true
	}
	return order, true
}

// predSel estimates the fraction of frame rows a predicate keeps.
func predSel(e sqlast.Expr, fr *frame) float64 {
	switch e := e.(type) {
	case sqlast.Cmp:
		lCol, lIsCol := e.Left.(sqlast.ColRef)
		rCol, rIsCol := e.Right.(sqlast.ColRef)
		lLit, lIsLit := e.Left.(sqlast.Lit)
		rLit, rIsLit := e.Right.(sqlast.Lit)
		var sel float64
		switch {
		case lIsCol && rIsLit:
			sel = eqSel(fr, lCol, rLit.Value)
		case rIsCol && lIsLit:
			sel = eqSel(fr, rCol, lLit.Value)
		case lIsCol && rIsCol:
			dl, dr := colDistinct(fr, lCol), colDistinct(fr, rCol)
			d := dl
			if dr > d {
				d = dr
			}
			if d < 1 {
				d = 1
			}
			sel = 1 / d
		case lIsLit && rIsLit:
			if lLit.Value.Equal(rLit.Value) {
				sel = 1
			} else {
				sel = 0
			}
		default:
			sel = unknownSel
		}
		if e.Op == sqlast.OpNe {
			sel = 1 - sel
		}
		return clampSel(sel)
	case sqlast.In:
		c, ok := e.Left.(sqlast.ColRef)
		if !ok {
			return unknownSel
		}
		sel := 0.0
		for _, lit := range e.List {
			sel += eqSel(fr, c, lit.Value)
		}
		return clampSel(sel)
	case sqlast.IsNull:
		if c, ok := e.Left.(sqlast.ColRef); ok {
			if ce := fr.colEst(c); ce != nil {
				return clampSel(ce.nullFrac)
			}
		}
		return unknownSel
	case sqlast.And:
		sel := 1.0
		for _, k := range e.Kids {
			sel *= predSel(k, fr)
		}
		return clampSel(sel)
	case sqlast.Or:
		keep := 1.0
		for _, k := range e.Kids {
			keep *= 1 - predSel(k, fr)
		}
		return clampSel(1 - keep)
	default:
		return unknownSel
	}
}

func eqSel(fr *frame, c sqlast.ColRef, v relational.Value) float64 {
	ce := fr.colEst(c)
	if ce == nil {
		return defaultEqSelectivity
	}
	if ce.histFrac != nil {
		return ce.histFrac[v.Key()]
	}
	if ce.distinct > 0 {
		return 1 / ce.distinct
	}
	return defaultEqSelectivity
}

func colDistinct(fr *frame, c sqlast.ColRef) float64 {
	if ce := fr.colEst(c); ce != nil && ce.distinct > 0 {
		return ce.distinct
	}
	return float64(defaultRows) * defaultEqSelectivity
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// joinSideDistinct returns the distinct counts of the two sides of an
// equi-join condition, capped by the row counts of their sides.
func joinSideDistinct(c sqlast.Cmp, fr *frame, newAlias string, frameRows, newRows float64) (float64, float64) {
	l, lok := c.Left.(sqlast.ColRef)
	r, rok := c.Right.(sqlast.ColRef)
	if !lok || !rok {
		return 1, 1
	}
	if l.Table == newAlias {
		l, r = r, l
	}
	dl := colDistinct(fr, l)
	if dl > frameRows {
		dl = frameRows
	}
	dr := colDistinct(fr, r)
	if dr > newRows {
		dr = newRows
	}
	return dl, dr
}

// ---- sqlast helpers (mirrors of unexported engine helpers) ----

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

func exprAliasSet(e sqlast.Expr) map[string]bool {
	acc := map[string]bool{}
	var walk func(sqlast.Expr)
	walk = func(e sqlast.Expr) {
		switch e := e.(type) {
		case sqlast.ColRef:
			acc[e.Table] = true
		case sqlast.Cmp:
			walk(e.Left)
			walk(e.Right)
		case sqlast.In:
			walk(e.Left)
		case sqlast.IsNull:
			walk(e.Left)
		case sqlast.And:
			for _, k := range e.Kids {
				walk(k)
			}
		case sqlast.Or:
			for _, k := range e.Kids {
				walk(k)
			}
		}
	}
	walk(e)
	return acc
}

func onlyAlias(aliases map[string]bool, alias string) bool {
	for a := range aliases {
		if a != alias {
			return false
		}
	}
	return len(aliases) > 0
}

func coveredBy(aliases map[string]bool, fr *frame, alias string) bool {
	for a := range aliases {
		if a == alias {
			continue
		}
		if !fr.has(a) {
			return false
		}
	}
	return true
}

func isJoinEq(e sqlast.Expr, fr *frame, alias string) bool {
	c, ok := e.(sqlast.Cmp)
	if !ok || c.Op != sqlast.OpEq {
		return false
	}
	l, lok := c.Left.(sqlast.ColRef)
	r, rok := c.Right.(sqlast.ColRef)
	if !lok || !rok {
		return false
	}
	if l.Table == alias && fr.has(r.Table) {
		return true
	}
	if r.Table == alias && fr.has(l.Table) {
		return true
	}
	return false
}

func selectReferences(s *sqlast.Select, name string) bool {
	for _, f := range s.From {
		if f.Source == name {
			return true
		}
	}
	return false
}

// Summary renders a compact human-readable form of the estimate, used by
// xml2sql -explain.
func (q *QueryEstimate) Summary() string {
	if q == nil {
		return "no estimate"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "estimated rows %.0f, cost %.0f, branches %d", q.Rows, q.Cost, len(q.Branches))
	if len(q.CTEs) > 0 {
		fmt.Fprintf(&b, ", ctes %d", len(q.CTEs))
	}
	return b.String()
}
