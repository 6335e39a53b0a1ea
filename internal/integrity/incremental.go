package integrity

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// Probe fetches tuples by key for the incremental audit. Rows must be
// returned in TableSchema column order (id, parentid, condition columns,
// value columns), exactly as the full audit's per-relation SELECT produces
// them. A relation with no matches returns an empty slice, not an error.
//
// StoreProbe answers from a relational.Store in O(1) per key via the
// primary-key and parentid indexes; NewSourceProbe issues id IN (...)
// SELECTs through any audit Source. The update path layers its staged
// effects over either (so a batch can be audited before it applies).
type Probe interface {
	FetchByID(ctx context.Context, rel string, ids []int64) ([]relational.Row, error)
	FetchByParent(ctx context.Context, rel string, parents []int64) ([]relational.Row, error)
}

// TupleRef names one tuple of the shredded instance.
type TupleRef struct {
	Rel string
	ID  int64
}

// Touched is a write batch's footprint: the tuples it inserted or rewrote
// (live after the batch) and the tuples it removed. AuditIncremental
// re-checks exactly the P1/P2/P3 neighborhood of this set.
type Touched struct {
	Written []TupleRef
	Deleted []TupleRef
}

// Empty reports whether the batch touched nothing.
func (t Touched) Empty() bool { return len(t.Written) == 0 && len(t.Deleted) == 0 }

// Relations returns the sorted set of relations the batch touched.
func (t Touched) Relations() []string {
	seen := map[string]bool{}
	for _, r := range t.Written {
		seen[r.Rel] = true
	}
	for _, r := range t.Deleted {
		seen[r.Rel] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// AuditIncremental verifies P1–P3 on the neighborhood of a write batch
// instead of scanning the whole instance. The neighborhood is:
//
//   - every touched tuple (written ids probed in every relation, so
//     duplicate ids and misfiled tuples surface exactly as in a full audit);
//   - the full ancestor chain of every loaded tuple up to its document root
//     (placement is inherited downward, so a tuple's position — and hence P1
//     — can only be judged under its placed parent);
//   - one level of children below every touched or deleted id (a delete must
//     not strand children; an insert must not collide with them).
//
// The structural pass is the full auditor's, run over the loaded subset: a
// loaded tuple whose parent id resolves to nothing is dangling (every loaded
// tuple's parent was probed), unreachable loaded tuples form parentid
// cycles, and condition columns must select exactly one schema position
// under the placed parent. Tuples outside the neighborhood are untouched by
// the batch, so their placement cannot have changed — which is what makes
// the incremental verdict equal to the full audit's after a valid batch
// (the randomized differential test in internal/update holds them equal).
func AuditIncremental(ctx context.Context, probe Probe, s *schema.Schema, touched Touched) (*Report, error) {
	return AuditIncrementalOpts(ctx, probe, s, touched, Options{})
}

// AuditIncrementalOpts is AuditIncremental with explicit options.
func AuditIncrementalOpts(ctx context.Context, probe Probe, s *schema.Schema, touched Touched, opts Options) (*Report, error) {
	a, err := run(ctx, s, opts, func(a *auditor) error { return a.loadNeighborhood(ctx, probe, touched) })
	if err != nil {
		return nil, err
	}
	return a.rep, nil
}

// Place returns the schema node that each tuple of rel with one of ids sits
// at: the auditor's top-down placement, run over the tuples' ancestor
// chains. An id that rel does not hold, or whose tuple places at no single
// node, is absent from the result.
func Place(ctx context.Context, probe Probe, s *schema.Schema, rel string, ids []int64) (map[int64]schema.NodeID, error) {
	a, err := run(ctx, s, Options{}, func(a *auditor) error {
		_, err := a.loadAncestors(ctx, probe, ids)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int64]schema.NodeID, len(ids))
	for _, t := range a.tuples[rel] {
		if len(t.pos) == 1 {
			out[t.id] = t.pos[0]
		}
	}
	return out, nil
}

// loadNeighborhood is the incremental counterpart of load: instead of one
// SELECT per relation it walks outward from the touched ids — ancestor
// chains via FetchByID, one child level via FetchByParent — and ingests
// every row it finds, building the same structural indexes the full pass
// uses.
func (a *auditor) loadNeighborhood(ctx context.Context, probe Probe, touched Touched) error {
	touchedIDs := make([]int64, 0, len(touched.Written)+len(touched.Deleted))
	for _, r := range touched.Written {
		touchedIDs = append(touchedIDs, r.ID)
	}
	for _, r := range touched.Deleted {
		touchedIDs = append(touchedIDs, r.ID)
	}
	slices.Sort(touchedIDs)
	touchedIDs = slices.Compact(touchedIDs)
	fetched, err := a.loadAncestors(ctx, probe, touchedIDs)
	if err != nil {
		return err
	}

	// One child level below the touched ids. Children of written tuples must
	// still place under them; children of deleted tuples are dangling. Rows
	// already loaded by id are skipped.
	if len(touchedIDs) > 0 {
		for _, rel := range a.rels {
			if err := ctx.Err(); err != nil {
				return err
			}
			rows, err := probe.FetchByParent(ctx, rel, touchedIDs)
			if err != nil {
				return fmt.Errorf("integrity: probing %s by parentid: %w", rel, err)
			}
			for _, row := range rows {
				if len(row) > 0 && !row[0].IsNull() && row[0].Kind() == relational.KindInt && fetched[row[0].AsInt()] {
					continue
				}
				a.rep.Tuples++
				a.ingest(rel, a.tss[rel], row)
			}
		}
	}

	for _, ts := range a.byParent {
		sortTups(ts)
	}
	return nil
}

// loadAncestors ingests the tuples with the given ids, in every relation,
// and then chases the parent ids of whatever it found, returning every id
// it probed. Cycles terminate on the probed set; chains end at NULL-parent
// roots or at absent parents (dangling, judged by the structural pass).
func (a *auditor) loadAncestors(ctx context.Context, probe Probe, ids []int64) (map[int64]bool, error) {
	fetched := make(map[int64]bool, len(ids))
	var frontier []int64
	add := func(id int64) {
		if !fetched[id] {
			fetched[id] = true
			frontier = append(frontier, id)
		}
	}
	for _, id := range ids {
		add(id)
	}
	for len(frontier) > 0 {
		ids := frontier
		frontier = nil
		slices.Sort(ids)
		for _, rel := range a.rels {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rows, err := probe.FetchByID(ctx, rel, ids)
			if err != nil {
				return nil, fmt.Errorf("integrity: probing %s by id: %w", rel, err)
			}
			for _, row := range rows {
				a.rep.Tuples++
				a.ingest(rel, a.tss[rel], row)
				if len(row) > 1 && !row[1].IsNull() && row[1].Kind() == relational.KindInt {
					add(row[1].AsInt())
				}
			}
		}
	}
	return fetched, nil
}

// storeProbe answers probes from a relational.Store using the primary-key
// map and the eager parentid indexes ShredAll builds; missing indexes fall
// back to scans so quarantined or hand-built stores stay auditable.
type storeProbe struct {
	store *relational.Store
}

// StoreProbe adapts a store for incremental audits.
func StoreProbe(store *relational.Store) Probe { return storeProbe{store: store} }

func (p storeProbe) FetchByID(ctx context.Context, rel string, ids []int64) ([]relational.Row, error) {
	t := p.store.Table(rel)
	if t == nil || len(ids) == 0 {
		return nil, nil
	}
	if t.Schema().PrimaryKey != "" {
		var out []relational.Row
		for _, id := range ids {
			if row, ok := t.LookupPK(relational.Int(id)); ok {
				out = append(out, row)
			}
		}
		return out, nil
	}
	return scanWhere(t, 0, ids), nil
}

func (p storeProbe) FetchByParent(ctx context.Context, rel string, parents []int64) ([]relational.Row, error) {
	t := p.store.Table(rel)
	if t == nil || len(parents) == 0 {
		return nil, nil
	}
	pi := t.Schema().ColumnIndex(schema.ParentIDColumn)
	if pi < 0 {
		return nil, nil
	}
	if t.HasIndex(schema.ParentIDColumn) {
		var out []relational.Row
		for _, par := range parents {
			out = t.AppendLookup(out, schema.ParentIDColumn, relational.Int(par))
		}
		return out, nil
	}
	return scanWhere(t, pi, parents), nil
}

func scanWhere(t *relational.Table, col int, keys []int64) []relational.Row {
	want := make(map[int64]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var out []relational.Row
	for _, row := range t.Rows() {
		if col < len(row) && !row[col].IsNull() && row[col].Kind() == relational.KindInt && want[row[col].AsInt()] {
			out = append(out, row)
		}
	}
	return out
}

// sourceProbe answers probes with id IN (...) SELECTs through an audit
// Source, so incremental audits run against any backend.
type sourceProbe struct {
	src Source
	tss map[string]*relational.TableSchema
}

// NewSourceProbe builds a Probe over a Source for the given mapping.
func NewSourceProbe(src Source, s *schema.Schema) (Probe, error) {
	a, err := newAuditor(s, Options{})
	if err != nil {
		return nil, err
	}
	return sourceProbe{src: src, tss: a.tss}, nil
}

func (p sourceProbe) fetch(ctx context.Context, rel, keyCol string, keys []int64) ([]relational.Row, error) {
	ts, ok := p.tss[rel]
	if !ok || len(keys) == 0 {
		return nil, nil
	}
	list := make([]sqlast.Lit, len(keys))
	for i, k := range keys {
		list[i] = sqlast.IntLit(k)
	}
	sel := &sqlast.Select{
		From:  []sqlast.FromItem{sqlast.From(rel, rel)},
		Where: sqlast.In{Left: sqlast.ColRef{Table: rel, Column: keyCol}, List: list},
	}
	for _, c := range ts.Columns {
		sel.Cols = append(sel.Cols, sqlast.Col(rel, c.Name))
	}
	res, err := p.src.Execute(ctx, sqlast.SingleSelect(sel))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (p sourceProbe) FetchByID(ctx context.Context, rel string, ids []int64) ([]relational.Row, error) {
	return p.fetch(ctx, rel, schema.IDColumn, ids)
}

func (p sourceProbe) FetchByParent(ctx context.Context, rel string, parents []int64) ([]relational.Row, error) {
	return p.fetch(ctx, rel, schema.ParentIDColumn, parents)
}
