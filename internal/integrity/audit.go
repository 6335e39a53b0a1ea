package integrity

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// Source is anywhere the audit probes can run: backend.Backend satisfies it
// structurally, and StoreSource adapts a bare relational.Store. The auditor
// issues one plain SELECT per relation (the sqlast fragment has no
// aggregates), so any engine that executes translated queries can be
// audited.
type Source interface {
	Execute(ctx context.Context, q *sqlast.Query) (*engine.Result, error)
}

// storeSource runs probes through the in-memory engine.
type storeSource struct{ store *relational.Store }

func (s storeSource) Execute(ctx context.Context, q *sqlast.Query) (*engine.Result, error) {
	return engine.Execute(ctx, s.store, q, engine.Options{})
}

// StoreSource adapts a relational.Store so it can be audited directly,
// without wrapping it in a backend.
func StoreSource(store *relational.Store) Source { return storeSource{store: store} }

// Options tunes an audit run. The zero value is the default.
type Options struct {
	// MaxViolations caps how many violations the Report records in detail
	// (Total keeps counting past the cap); 0 means DefaultMaxViolations.
	MaxViolations int
}

// DefaultMaxViolations is the default Report detail cap.
const DefaultMaxViolations = 1000

// Audit verifies P1–P3 for the mapping s against the instance behind src
// and reports every detectable violation. It returns a non-nil Report even
// when violations are found; the error return is reserved for audits that
// could not run (probe failure, unauditable schema, cancelled context).
func Audit(ctx context.Context, src Source, s *schema.Schema) (*Report, error) {
	return AuditOpts(ctx, src, s, Options{})
}

// AuditOpts is Audit with explicit options.
func AuditOpts(ctx context.Context, src Source, s *schema.Schema, opts Options) (*Report, error) {
	a, err := run(ctx, s, opts, func(a *auditor) error { return a.load(ctx, src) })
	if err != nil {
		return nil, err
	}
	return a.rep, nil
}

// run builds an auditor, ingests what load fetches, and runs the structural
// pass over it.
func run(ctx context.Context, s *schema.Schema, opts Options, load func(*auditor) error) (*auditor, error) {
	start := time.Now()
	a, err := newAuditor(s, opts)
	if err != nil {
		return nil, err
	}
	if err := load(a); err != nil {
		return nil, err
	}
	if err := a.structural(ctx); err != nil {
		return nil, err
	}
	a.rep.Elapsed = time.Since(start)
	return a, nil
}

// achain is one downward route from an annotated schema node, through
// unannotated structural nodes, to the next relation-annotated node, with
// the edge conditions (plus the target's node conditions) accumulated along
// it — the per-position membership test of §3.2.
type achain struct {
	target schema.NodeID
	rel    string
	conds  []schema.EdgeCond
}

// tup is one probed tuple plus its audit state.
type tup struct {
	rel    string
	id     int64
	parent relational.Value
	row    map[string]relational.Value
	// pos is the set of schema nodes the tuple may align to; exactly one
	// for healthy tuples.
	pos []schema.NodeID
	// suspect marks tuples whose alignment is unknown (their own or an
	// ancestor's violation); checks on suspects are best-effort and their
	// failures are not re-reported, so one injected corruption yields one
	// violation, not one per descendant.
	suspect bool
	visited bool
}

func (t *tup) value(col string) relational.Value {
	v, ok := t.row[col]
	if !ok {
		return relational.Null
	}
	return v
}

func (t *tup) condsMatch(conds []schema.EdgeCond) bool {
	for _, c := range conds {
		if !t.value(c.Column).Equal(c.Value) {
			return false
		}
	}
	return true
}

// tables are the auditor's schema-derived lookups. They are built once per
// schema (schema.AuditTables) and shared read-only by every audit of it.
type tables struct {
	err  error
	defs map[string]*schema.RelationDef
	tss  map[string]*relational.TableSchema
	rels []string // sorted
	// relNodes: relation -> schema nodes annotated with it.
	relNodes map[string][]schema.NodeID
	// chains: annotated node -> routes to the next annotated nodes below.
	chains map[schema.NodeID][]achain
	// parentRels: relation -> relations the mapping places directly above.
	parentRels map[string]map[string]bool
	// domains: relation -> condition column -> declared values.
	domains map[string]map[string]map[string]bool
	// domainVals: same, as sorted literals for repair hints.
	domainVals map[string]map[string][]relational.Value
	// intrinsic: relation -> value column stored by every node of the
	// relation (hence mandatory in every tuple).
	intrinsic map[string]string
}

type auditor struct {
	*tables
	s   *schema.Schema
	max int
	rep *Report

	tuples   map[string][]*tup
	byID     map[int64][]*tup
	byParent map[int64][]*tup
}

func newAuditor(s *schema.Schema, opts Options) (*auditor, error) {
	t := s.AuditTables(func() any { return compile(s) }).(*tables)
	if t.err != nil {
		return nil, t.err
	}
	a := &auditor{tables: t, s: s, max: opts.MaxViolations, rep: &Report{Schema: s.Name, Relations: len(t.defs)},
		tuples: map[string][]*tup{}, byID: map[int64][]*tup{}, byParent: map[int64][]*tup{}}
	if a.max <= 0 {
		a.max = DefaultMaxViolations
	}
	return a, nil
}

func compile(s *schema.Schema) *tables {
	if !s.RootNode().HasRelation() {
		return &tables{err: fmt.Errorf("integrity: cannot audit schema %s: root node %s has no relation annotation", s.Name, s.RootNode().Name)}
	}
	defs, err := s.DeriveRelations()
	if err != nil {
		return &tables{err: fmt.Errorf("integrity: %w", err)}
	}
	a := &tables{
		defs:       defs,
		tss:        make(map[string]*relational.TableSchema, len(defs)),
		relNodes:   map[string][]schema.NodeID{},
		chains:     map[schema.NodeID][]achain{},
		parentRels: map[string]map[string]bool{},
		domains:    map[string]map[string]map[string]bool{},
		domainVals: map[string]map[string][]relational.Value{},
		intrinsic:  map[string]string{},
	}
	for rel, def := range defs {
		a.tss[rel] = def.TableSchema()
		a.rels = append(a.rels, rel)
	}
	sort.Strings(a.rels)
	for _, n := range s.Nodes() {
		if n.HasRelation() {
			a.relNodes[n.Relation] = append(a.relNodes[n.Relation], n.ID)
		}
	}
	for _, n := range s.Nodes() {
		if !n.HasRelation() {
			continue
		}
		chains, err := chainsFrom(s, n.ID)
		if err != nil {
			return &tables{err: err}
		}
		a.chains[n.ID] = chains
		for _, ch := range chains {
			a.addParentRel(ch.rel, n.Relation)
			for _, c := range ch.conds {
				a.addDomain(ch.rel, c)
			}
		}
	}
	for _, c := range s.RootNode().Conds {
		a.addDomain(s.RootNode().Relation, c)
	}
	for rel, nodes := range a.relNodes {
		col := s.Node(nodes[0]).Column
		if col == "" || col == schema.IDColumn {
			continue
		}
		all := true
		for _, id := range nodes[1:] {
			if s.Node(id).Column != col {
				all = false
				break
			}
		}
		if all {
			a.intrinsic[rel] = col
		}
	}
	return a
}

func (a *tables) addParentRel(child, parent string) {
	set, ok := a.parentRels[child]
	if !ok {
		set = map[string]bool{}
		a.parentRels[child] = set
	}
	set[parent] = true
}

func (a *tables) addDomain(rel string, c schema.EdgeCond) {
	byCol, ok := a.domains[rel]
	if !ok {
		byCol = map[string]map[string]bool{}
		a.domains[rel] = byCol
		a.domainVals[rel] = map[string][]relational.Value{}
	}
	set, ok := byCol[c.Column]
	if !ok {
		set = map[string]bool{}
		byCol[c.Column] = set
	}
	if !set[c.Value.Key()] {
		set[c.Value.Key()] = true
		vals := append(a.domainVals[rel][c.Column], c.Value)
		sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
		a.domainVals[rel][c.Column] = vals
	}
}

// chainsFrom mirrors the reconstructor's chain enumeration, keeping only
// relation-annotated targets (value leaves store into the origin tuple and
// are checked as columns, not chains).
func chainsFrom(s *schema.Schema, sid schema.NodeID) ([]achain, error) {
	var out []achain
	var visit func(id schema.NodeID, conds []schema.EdgeCond, seen map[schema.NodeID]bool) error
	visit = func(id schema.NodeID, conds []schema.EdgeCond, seen map[schema.NodeID]bool) error {
		for _, e := range s.Node(id).Children() {
			m := s.Node(e.To)
			cconds := conds
			if e.Cond != nil {
				cconds = append(append([]schema.EdgeCond(nil), conds...), *e.Cond)
			}
			switch {
			case m.HasRelation():
				tconds := cconds
				if len(m.Conds) > 0 {
					tconds = append(append([]schema.EdgeCond(nil), cconds...), m.Conds...)
				}
				out = append(out, achain{target: e.To, rel: m.Relation, conds: tconds})
			case m.Column != "":
				// Value leaf: no tuple of its own.
			default:
				if seen[e.To] {
					return fmt.Errorf("integrity: schema %s: unannotated cycle through node %s; occurrence counts unrecoverable", s.Name, m.Name)
				}
				seen[e.To] = true
				if err := visit(e.To, cconds, seen); err != nil {
					return err
				}
				delete(seen, e.To)
			}
		}
		return nil
	}
	err := visit(sid, nil, map[schema.NodeID]bool{})
	return out, err
}

func (a *auditor) violate(v Violation) {
	a.rep.Total++
	if len(a.rep.Violations) < a.max {
		a.rep.Violations = append(a.rep.Violations, v)
	} else {
		a.rep.Truncated = true
	}
}

// load probes every relation with one SELECT and runs the per-tuple column
// checks (P3) while building the structural indexes.
func (a *auditor) load(ctx context.Context, src Source) error {
	for _, rel := range a.rels {
		if err := ctx.Err(); err != nil {
			return err
		}
		ts := a.tss[rel]
		sel := &sqlast.Select{From: []sqlast.FromItem{sqlast.From(rel, rel)}}
		for _, c := range ts.Columns {
			sel.Cols = append(sel.Cols, sqlast.Col(rel, c.Name))
		}
		res, err := src.Execute(ctx, sqlast.SingleSelect(sel))
		if err != nil {
			return fmt.Errorf("integrity: probing relation %s: %w", rel, err)
		}
		for _, row := range res.Rows {
			a.rep.Tuples++
			a.ingest(rel, ts, row)
		}
	}
	for _, ts := range a.byParent {
		sortTups(ts)
	}
	return nil
}

func sortTups(ts []*tup) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].rel != ts[j].rel {
			return ts[i].rel < ts[j].rel
		}
		return ts[i].id < ts[j].id
	})
}

// ingest classifies one probed row: id/parentid well-formedness, condition
// column domains, value column kinds, and mandatory leaf values.
func (a *auditor) ingest(rel string, ts *relational.TableSchema, row relational.Row) {
	idv := row[0]
	if idv.IsNull() || idv.Kind() != relational.KindInt {
		a.violate(Violation{Property: P2, Relation: rel, Detail: fmt.Sprintf("tuple with unusable id %s (want a non-NULL integer)", idv),
			Hint: "assign a fresh unique integer id"})
		return
	}
	t := &tup{rel: rel, id: idv.AsInt(), parent: row[1], row: map[string]relational.Value{}}
	for i := 2; i < len(ts.Columns) && i < len(row); i++ {
		t.row[ts.Columns[i].Name] = row[i]
	}
	for _, prev := range a.byID[t.id] {
		if prev.rel == rel {
			a.violate(Violation{Property: P2, Relation: rel, TupleID: t.id,
				Detail: "duplicate id within the relation", Hint: "re-number one of the copies"})
			return
		}
	}
	if !t.parent.IsNull() && t.parent.Kind() != relational.KindInt {
		a.violate(Violation{Property: P2, Relation: rel, TupleID: t.id,
			Detail: fmt.Sprintf("parentid %s is not an integer", t.parent), Hint: "restore the parent link"})
		t.parent = relational.Null // audited as an (already reported) root-shaped stray below
		t.suspect = true
	}

	def := a.defs[rel]
	for _, c := range def.CondColumns {
		v := t.value(c.Name)
		if v.IsNull() {
			continue // the mapping left the edge unspecified for this route
		}
		if v.Kind() != c.Kind {
			a.violate(Violation{Property: P3, Relation: rel, TupleID: t.id, Column: c.Name,
				Detail: fmt.Sprintf("condition column holds %s value %s, want %s", v.Kind(), v, c.Kind),
				Hint:   "restore the materialized edge condition value"})
			continue
		}
		if dom := a.domains[rel][c.Name]; dom != nil && !dom[v.Key()] {
			a.violate(Violation{Property: P3, Relation: rel, TupleID: t.id, Column: c.Name,
				Detail: fmt.Sprintf("condition value %s is outside the mapping's declared domain %v", v, a.domainVals[rel][c.Name]),
				Hint:   fmt.Sprintf("set %s to one of %v, or NULL for an unconditioned route", c.Name, a.domainVals[rel][c.Name])})
		}
	}
	for _, c := range def.ValueColumns {
		v := t.value(c.Name)
		if !v.IsNull() && v.Kind() != relational.KindString {
			a.violate(Violation{Property: P3, Relation: rel, TupleID: t.id, Column: c.Name,
				Detail: fmt.Sprintf("value column holds %s value %s, want element text (%s)", v.Kind(), v, relational.KindString),
				Hint:   "restore the shredded element text"})
		}
	}
	if col, ok := a.intrinsic[rel]; ok && t.value(col).IsNull() {
		a.violate(Violation{Property: P3, Relation: rel, TupleID: t.id, Column: col,
			Detail: fmt.Sprintf("mandatory leaf value is NULL (every schema node of %s stores its text in %s)", rel, col),
			Hint:   "restore the element text or quarantine the tuple"})
		t.suspect = true
	}

	a.tuples[rel] = append(a.tuples[rel], t)
	a.byID[t.id] = append(a.byID[t.id], t)
	if !t.parent.IsNull() {
		a.byParent[t.parent.AsInt()] = append(a.byParent[t.parent.AsInt()], t)
	}
}

// structural runs the P1/P2 pass: position inference down the parentid
// forest from the document roots, then dangling-parent and reachability
// sweeps over whatever the traversal never claimed.
func (a *auditor) structural(ctx context.Context) error {
	rootRel := a.s.RootNode().Relation
	rootID := a.s.Root()
	rels := a.rels

	// Document roots and root-shaped strays (NULL parentid elsewhere).
	var queue []*tup
	enqueue := func(t *tup) {
		t.visited = true
		queue = append(queue, t)
	}
	for _, rel := range rels {
		for _, t := range a.tuples[rel] {
			if !t.parent.IsNull() {
				continue
			}
			switch {
			case rel != rootRel:
				a.violate(Violation{Property: P2, Relation: rel, TupleID: t.id,
					Detail: fmt.Sprintf("NULL parentid, but %s is not the root relation (%s)", rel, rootRel),
					Hint:   "re-parent the tuple or delete its subtree"})
				t.suspect = true
				t.pos = a.relNodes[rel]
			case t.condsMatch(a.s.RootNode().Conds):
				t.pos = []schema.NodeID{rootID}
			default:
				if !t.suspect {
					a.violate(Violation{Property: P1, Relation: rel, TupleID: t.id,
						Detail: "document root tuple fails the root node's conditions",
						Hint:   "restore the materialized node condition columns"})
				}
				t.suspect = true
				t.pos = a.relNodes[rel]
			}
			enqueue(t)
		}
	}

	steps := 0
	for len(queue) > 0 {
		if steps++; steps%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := queue[0]
		queue = queue[1:]
		for _, c := range a.byParent[t.id] {
			if c.visited {
				continue
			}
			a.place(t, c)
			enqueue(c)
		}
	}

	// Dangling parents: unvisited tuples whose parentid resolves to no
	// tuple at all head an orphan subtree; one violation per head, then the
	// subtree is claimed so descendants are not re-reported.
	for _, rel := range rels {
		for _, t := range a.tuples[rel] {
			if t.visited || t.parent.IsNull() || len(a.byID[t.parent.AsInt()]) > 0 {
				continue
			}
			a.violate(Violation{Property: P2, Relation: rel, TupleID: t.id,
				Detail: fmt.Sprintf("parentid %d resolves to no tuple in any relation", t.parent.AsInt()),
				Hint:   "delete the orphan subtree or re-parent it under an existing tuple"})
			t.suspect = true
			t.pos = a.relNodes[rel]
			enqueue(t)
			for len(queue) > 0 {
				h := queue[0]
				queue = queue[1:]
				for _, c := range a.byParent[h.id] {
					if c.visited {
						continue
					}
					a.place(h, c)
					enqueue(c)
				}
			}
		}
	}

	// Whatever is still unvisited has an existing parent but no route to a
	// root: a parentid cycle.
	for _, rel := range rels {
		for _, t := range a.tuples[rel] {
			if !t.visited {
				a.violate(Violation{Property: P2, Relation: rel, TupleID: t.id,
					Detail: "unreachable from any document root (parentid cycle)",
					Hint:   "break the cycle by re-parenting one of its tuples"})
			}
		}
	}
	return nil
}

// place aligns child c under parent t: legality of the parent's relation
// along some mapping edge (P2), then the condition columns must select
// exactly one schema position among the chains below t's positions (P1).
func (a *auditor) place(t, c *tup) {
	if !a.parentRels[c.rel][t.rel] {
		legal := make([]string, 0, len(a.parentRels[c.rel]))
		for r := range a.parentRels[c.rel] {
			legal = append(legal, r)
		}
		sort.Strings(legal)
		a.violate(Violation{Property: P2, Relation: c.rel, TupleID: c.id,
			Detail: fmt.Sprintf("parented under %s.id=%d, but the mapping never places %s below %s (legal parents: %v)",
				t.rel, t.id, c.rel, t.rel, legal),
			Hint: "re-parent the tuple under a relation the mapping allows"})
		c.suspect = true
		c.pos = a.relNodes[c.rel]
		return
	}
	matched := map[schema.NodeID]bool{}
	for _, pp := range t.pos {
		for _, ch := range a.chains[pp] {
			if ch.rel == c.rel && c.condsMatch(ch.conds) {
				matched[ch.target] = true
			}
		}
	}
	switch len(matched) {
	case 0:
		if !t.suspect && !c.suspect {
			a.violate(Violation{Property: P1, Relation: c.rel, TupleID: c.id,
				Detail: fmt.Sprintf("condition columns select no schema position under parent %s.id=%d", t.rel, t.id),
				Hint:   "restore the materialized edge condition columns or quarantine the tuple"})
		}
		c.suspect = true
		c.pos = a.relNodes[c.rel]
	case 1:
		for id := range matched {
			c.pos = []schema.NodeID{id}
		}
		c.suspect = c.suspect || t.suspect
	default:
		if !t.suspect && !c.suspect {
			a.violate(Violation{Property: P1, Relation: c.rel, TupleID: c.id,
				Detail: fmt.Sprintf("condition columns select %d schema positions under parent %s.id=%d; the alignment is ambiguous", len(matched), t.rel, t.id),
				Hint:   "adjust the mapping or the condition columns so exactly one position matches"})
		}
		pos := make([]schema.NodeID, 0, len(matched))
		for id := range matched {
			pos = append(pos, id)
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		c.pos = pos
		c.suspect = c.suspect || t.suspect
	}
}
