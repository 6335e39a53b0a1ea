// Package update implements the transactional XML mutation path: a batch of
// subtree insertions, deletions and replacements addressed by path
// expressions is translated into relational DML over the shredded instance,
// validated against the mapping's integrity constraint (P1–P3) *before*
// anything is written, and then applied atomically through a backend's DML
// capability — a failed or faulted statement rolls the whole batch back to
// the pre-batch instance.
//
// The package leans on the same machinery queries use: targets are resolved
// by running, once, the plan a read of the same path is served (pruned,
// unless pruning falls back or the planner is in safe mode), taken from the
// planner's cache entry for the path's shape;
// inserted subtrees are aligned and decomposed exactly as the shredder would
// (shred.AlignAt plus the same owner/pending-condition walk); and validity
// is judged by the incremental auditor (integrity.AuditIncremental) over an
// overlay that shows the batch's staged effects as if they had been applied. Because validation precedes
// application, an invalid batch is rejected with nothing written even on
// backends that cannot roll back after commit.
package update

import (
	"context"
	"fmt"
	"sync"

	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
	"xmlsql/internal/plancache"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// Op is the kind of one mutation.
type Op int

const (
	// OpInsert adds a subtree under every element the path selects.
	OpInsert Op = iota
	// OpDelete removes every element the path selects, with its subtree.
	OpDelete
	// OpReplace substitutes a new subtree for every element the path
	// selects, preserving the element's schema position.
	OpReplace
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReplace:
		return "replace"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Mutation is one edit: an operation, the path expression selecting its
// target elements, and (for insert/replace) the XML subtree to attach.
//
// Targets must be tuple-producing elements — path expressions ending at a
// value leaf or at an element the mapping does not materialize are rejected
// with ErrTarget, since there is no tuple to anchor the edit to. To change a
// leaf value, replace its enclosing element.
type Mutation struct {
	Op   Op     `json:"op"`
	Path string `json:"path"`
	XML  string `json:"xml,omitempty"`
}

// Batch is an atomic group of mutations. Every mutation resolves its targets
// against the pre-batch instance (snapshot semantics): a path never selects
// an element another mutation of the same batch inserted. Effects still
// compose — deleting an element removes subtrees an earlier mutation staged
// beneath it, and the whole batch is audited as one candidate instance.
type Batch struct {
	Muts []Mutation `json:"mutations"`
}

// ErrorKind classifies batch rejections.
type ErrorKind int

const (
	// ErrPath: the path expression is invalid, or does not translate.
	ErrPath ErrorKind = iota
	// ErrTarget: the path selects no tuple-producing schema position, or
	// an insert or replace target that places at none of the path's.
	ErrTarget
	// ErrConform: an inserted subtree does not conform at the position the
	// mutation lands it in.
	ErrConform
	// ErrConflict: the batch contradicts itself or the existing data
	// without breaking P1–P3 structurally (e.g. a value column set twice).
	ErrConflict
	// ErrIntegrity: applying the batch would violate the mapping's
	// integrity constraint; Report carries the violations.
	ErrIntegrity
	// ErrUnsupported: the backend cannot apply updates atomically.
	ErrUnsupported
)

// String names the kind.
func (k ErrorKind) String() string {
	switch k {
	case ErrPath:
		return "path"
	case ErrTarget:
		return "target"
	case ErrConform:
		return "conform"
	case ErrConflict:
		return "conflict"
	case ErrIntegrity:
		return "integrity"
	case ErrUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Error is a typed batch rejection. It always carries the path expression of
// the violating mutation (and its index in the batch), so callers can report
// which edit was at fault; integrity rejections additionally carry the
// auditor's report. A rejected batch is atomic: nothing was applied.
type Error struct {
	Kind   ErrorKind
	Index  int    // index of the violating mutation in the batch
	Path   string // that mutation's path expression
	Msg    string
	Report *integrity.Report // set for ErrIntegrity
}

// Error renders the rejection.
func (e *Error) Error() string {
	s := fmt.Sprintf("update: mutation %d (%s): %s: %s", e.Index, e.Path, e.Kind, e.Msg)
	if e.Report != nil && len(e.Report.Violations) > 0 {
		s += ": " + e.Report.Violations[0].String()
	}
	return s
}

// Result reports one applied batch.
type Result struct {
	// Touched is the batch's tuple footprint: what the incremental audit
	// re-checks.
	Touched integrity.Touched
	// Stmts counts the DML statements applied.
	Stmts int
	// Statements is the applied DML, in execution order (diagnostics; tools
	// render them in a dialect).
	Statements []sqlast.DMLStmt
	// Audit is the post-apply incremental audit over the live instance. A
	// batch only applies if its pre-apply overlay audit was clean, so Audit
	// is clean unless the instance was already dirty outside the batch's
	// neighborhood responsibility. It is nil when AuditErr is set.
	Audit *integrity.Report
	// AuditErr, when non-nil, is why the post-apply audit did not complete
	// (a backend fault, a canceled context). The batch is applied all the
	// same — committed, and never to be re-sent — but its neighborhood went
	// unaudited.
	AuditErr error
	// Preexisting, when non-nil, is the overlay audit showing violations
	// that predate the batch (the same violations reproduce without the
	// batch's effects). The batch itself is valid and was applied; callers
	// decide the trust consequence.
	Preexisting *integrity.Report
}

// Applier plans and applies mutation batches for one mapping over one
// backend. It serializes batches internally (one writer at a time); readers
// are the backend's concern.
type Applier struct {
	s     *schema.Schema
	src   integrity.Source
	probe integrity.Probe
	dml   backend.DML
	plans func(path string, safe bool) (*plancache.Plan, error)
	defs  map[string]*schema.RelationDef
	tss   map[string]*relational.TableSchema
	opts  Options

	mu     sync.Mutex
	nextID int64 // next fresh tuple id; 0 until first use
}

// Options tune an Applier. The zero value is the default.
type Options struct {
	// Audit tunes the integrity audits the applier runs.
	Audit integrity.Options
}

// New prepares an applier. plans serves a path's plan in trusted or safe
// mode (a planner's cache, or plancache.Translator without one), src runs it
// to resolve targets (any engine that executes translated queries), probe
// answers the incremental audit's keyed fetches, and dml applies the planned
// statements atomically.
func New(s *schema.Schema, src integrity.Source, probe integrity.Probe, dml backend.DML, plans func(path string, safe bool) (*plancache.Plan, error), opts Options) (*Applier, error) {
	defs, err := s.DeriveRelations()
	if err != nil {
		return nil, fmt.Errorf("update: %w", err)
	}
	tss := make(map[string]*relational.TableSchema, len(defs))
	for rel, def := range defs {
		tss[rel] = def.TableSchema()
	}
	return &Applier{s: s, src: src, probe: probe, dml: dml, plans: plans, defs: defs, tss: tss, opts: opts}, nil
}

// ForStore builds an applier over a bare in-memory store, for tests and
// tools that bypass the backend layer.
func ForStore(s *schema.Schema, store *relational.Store, opts Options) (*Applier, error) {
	return New(s, integrity.StoreSource(store), integrity.StoreProbe(store), backend.NewMemOn(store), plancache.Translator(s), opts)
}

// Apply plans, validates and applies one batch. A returned error means the
// batch is not applied: it is a *Error (a planning or validation rejection,
// before anything was written), or the backend's error from a read before
// the DML or from the DML itself, which the backend rolled back. Once the
// DML commits, Apply returns the batch's Result — its footprint and the
// post-apply audit, or, if that audit could not complete, Result.AuditErr.
// Targets resolve by the translation a trusting planner serves reads.
func (a *Applier) Apply(ctx context.Context, b Batch) (*Result, error) {
	return a.ApplyMode(ctx, b, false)
}

// ApplyMode is Apply under a planner's trust rule: with safe set, targets
// resolve by the baseline translation, as reads are served in safe mode.
func (a *Applier) ApplyMode(ctx context.Context, b Batch, safe bool) (*Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	if len(b.Muts) == 0 {
		return &Result{Audit: &integrity.Report{Schema: a.s.Name}}, nil
	}
	if err := a.ensureNextID(ctx); err != nil {
		return nil, err
	}

	st := newStaging(a)
	for i, m := range b.Muts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		targets, err := a.resolve(ctx, i, m, safe)
		if err != nil {
			return nil, err
		}
		if err := a.plan(ctx, st, i, m, targets); err != nil {
			return nil, err
		}
	}

	touched := st.touched()
	overlay := &overlayProbe{base: a.probe, st: st}
	rep, err := integrity.AuditIncrementalOpts(ctx, overlay, a.s, touched, a.opts.Audit)
	if err != nil {
		return nil, fmt.Errorf("update: pre-apply audit: %w", err)
	}
	var preexisting *integrity.Report
	if !rep.Clean() {
		// Distinguish dirt the batch would introduce from dirt that was
		// already there: the same neighborhood audited without the batch's
		// effects. Violations absent from the base report are the batch's.
		base, berr := integrity.AuditIncrementalOpts(ctx, a.probe, a.s, st.baseTouched(), a.opts.Audit)
		if berr != nil {
			return nil, fmt.Errorf("update: base audit: %w", berr)
		}
		if v, ok := newViolation(rep, base); ok {
			idx := st.mutationFor(v.Relation, v.TupleID)
			path := ""
			if idx >= 0 && idx < len(b.Muts) {
				path = b.Muts[idx].Path
			}
			if idx < 0 {
				idx = 0
				path = b.Muts[0].Path
			}
			return nil, &Error{Kind: ErrIntegrity, Index: idx, Path: path,
				Msg: "batch would violate the mapping's integrity constraint", Report: rep}
		}
		preexisting = rep
	}

	stmts := st.statements()
	if len(stmts) > 0 {
		if err := a.dml.ApplyDML(ctx, stmts); err != nil {
			return nil, fmt.Errorf("update: apply: %w", err)
		}
	}

	res := &Result{Touched: touched, Stmts: len(stmts), Statements: stmts, Preexisting: preexisting}
	if res.Audit, err = integrity.AuditIncrementalOpts(ctx, a.probe, a.s, touched, a.opts.Audit); err != nil {
		res.AuditErr = fmt.Errorf("update: post-apply audit: %w", err)
	}
	return res, nil
}

// newViolation reports a violation present in rep but not in base, if any.
func newViolation(rep, base *integrity.Report) (integrity.Violation, bool) {
	seen := make(map[string]bool, len(base.Violations))
	for _, v := range base.Violations {
		seen[violationKey(v)] = true
	}
	for _, v := range rep.Violations {
		if !seen[violationKey(v)] {
			return v, true
		}
	}
	// Truncated reports cannot be compared violation-by-violation; treat a
	// higher total as batch-introduced dirt, anchored to the first recorded
	// violation.
	if rep.Total > base.Total && len(rep.Violations) > 0 {
		return rep.Violations[0], true
	}
	return integrity.Violation{}, false
}

func violationKey(v integrity.Violation) string {
	return fmt.Sprintf("%v|%s|%d|%s|%s", v.Property, v.Relation, v.TupleID, v.Column, v.Detail)
}

// ensureNextID discovers the highest tuple id in the instance once per
// applier, so fresh ids never collide. Later batches advance the counter
// locally; the primary-key guard at apply time backstops external writers.
func (a *Applier) ensureNextID(ctx context.Context) error {
	if a.nextID > 0 {
		return nil
	}
	max := int64(0)
	for _, rel := range a.s.Relations() {
		sel := &sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col(rel, schema.IDColumn)},
			From: []sqlast.FromItem{sqlast.From(rel, rel)},
		}
		res, err := a.src.Execute(ctx, sqlast.SingleSelect(sel))
		if err != nil {
			return fmt.Errorf("update: scanning %s ids: %w", rel, err)
		}
		for _, row := range res.Rows {
			if len(row) > 0 && !row[0].IsNull() && row[0].Kind() == relational.KindInt && row[0].AsInt() > max {
				max = row[0].AsInt()
			}
		}
	}
	a.nextID = max + 1
	return nil
}

func (a *Applier) freshID() int64 {
	id := a.nextID
	a.nextID++
	return id
}
