package xmlsql

import (
	"context"

	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
	"xmlsql/internal/plancache"
	"xmlsql/internal/update"
)

// The transactional update path, re-exported from internal/update.
type (
	// UpdateOp is the kind of one mutation (insert/delete/replace).
	UpdateOp = update.Op
	// UpdateMutation is one edit: an operation, the path expression
	// selecting its target elements, and (for insert/replace) the XML
	// subtree to attach. Targets must be tuple-producing elements.
	UpdateMutation = update.Mutation
	// UpdateBatch is an atomic group of mutations: either every mutation
	// applies, or none does. Targets resolve against the pre-batch instance
	// (snapshot semantics).
	UpdateBatch = update.Batch
	// UpdateResult reports one applied batch: its tuple footprint, the DML
	// statement count, and the incremental audits around it (AuditErr when
	// the post-apply audit could not complete).
	UpdateResult = update.Result
	// UpdateError is the typed rejection of an invalid batch; it names the
	// violating mutation and, for integrity rejections, carries the
	// auditor's report. A rejected batch changed nothing.
	UpdateError = update.Error
	// UpdateErrorKind classifies batch rejections (UpdateError.Kind).
	UpdateErrorKind = update.ErrorKind
	// UpdateOptions tune how an applier audits batches.
	UpdateOptions = update.Options
	// UpdateApplier plans and applies mutation batches for one mapping over
	// one backend, for callers that bypass the Planner.
	UpdateApplier = update.Applier
	// TouchedTuples is an applied batch's tuple-level footprint: the input
	// of the incremental audit.
	TouchedTuples = integrity.Touched
)

// The mutation operations.
const (
	// UpdateInsert adds a subtree under every element the path selects.
	UpdateInsert = update.OpInsert
	// UpdateDelete removes every element the path selects, with its subtree.
	UpdateDelete = update.OpDelete
	// UpdateReplace substitutes a new subtree for every element the path
	// selects, preserving the element's schema position.
	UpdateReplace = update.OpReplace
)

// The update rejection kinds (UpdateError.Kind).
const (
	UpdateErrPath        = update.ErrPath
	UpdateErrTarget      = update.ErrTarget
	UpdateErrConform     = update.ErrConform
	UpdateErrConflict    = update.ErrConflict
	UpdateErrIntegrity   = update.ErrIntegrity
	UpdateErrUnsupported = update.ErrUnsupported
)

// NewUpdateApplier builds a standalone applier over a bare in-memory store,
// for tools and tests that do not serve through a Planner.
func NewUpdateApplier(s *Schema, store *Store, opts UpdateOptions) (*UpdateApplier, error) {
	return update.ForStore(s, store, opts)
}

// Update plans, validates, and atomically applies one mutation batch on the
// planner's backend. Serving needs no invalidation afterwards:
//
//   - Cached translations stay: a translation is a function of (mapping, path
//     expression), valid on every instance satisfying the lossless constraint,
//     so no write can make one wrong, and the plan rule reads no data.
//   - Trust transitions follow the incremental audit of the touched
//     neighborhood: a clean audit leaves TrustVerified standing without a
//     global scan (the batch demonstrably preserved the constraint where it
//     wrote), while detected pre-existing dirt flips the planner to
//     TrustViolated scoped to the violating relations.
//
// A mutation's targets are the elements Exec returns for its path in the
// same trust state: they resolve by the pruned translation, or by the
// baseline when pruning falls back or the planner is in safe mode.
//
// Updates are accepted in every trust state — on a TrustViolated instance
// they are the repair vector (each batch is still validated against P1–P3
// before applying, so updates never make the instance dirtier). A returned
// error means the batch changed nothing: validation happens before any write,
// and the backend applies the statements transactionally. A batch that
// committed is returned, never an error, even when its post-apply audit
// could not complete (UpdateResult.AuditErr): a TrustVerified planner then
// drops to TrustUnverified, since nothing checked where the batch wrote.
func (p *Planner) Update(ctx context.Context, b UpdateBatch) (*UpdateResult, error) {
	a, err := p.updateApplier()
	if err != nil {
		p.updateRejects.Add(1)
		return nil, err
	}
	res, err := a.ApplyMode(ctx, b, p.safeMode())
	if err != nil {
		p.updateRejects.Add(1)
		return nil, err
	}
	p.updates.Add(1)

	switch {
	case res.Audit != nil && !res.Audit.Clean():
		// The post-apply audit of the touched neighborhood found dirt. The
		// batch itself validated clean pre-apply, so this is pre-existing
		// (or a concurrent external writer); either way the instance is not
		// trustworthy there.
		p.violations.Add(int64(res.Audit.Total))
		p.lastAudit.Store(res.Audit)
		p.SetTrustState(TrustViolated)
	case res.Preexisting != nil:
		p.violations.Add(int64(res.Preexisting.Total))
		p.lastAudit.Store(res.Preexisting)
		p.SetTrustState(TrustViolated)
	case res.AuditErr != nil:
		// Committed but unaudited: the verified verdict no longer has its
		// proof. Unverified and Violated stand as they are.
		p.trust.CompareAndSwap(int32(TrustVerified), int32(TrustUnverified))
	default:
		// Neighborhood clean: a TrustVerified instance stays verified — the
		// incremental audit is exactly the promotion proof, no global scan
		// needed. Unverified and Violated states are left alone; dirt could
		// live outside this batch's neighborhood, so only a full Audit (or
		// quarantine) may clear them.
	}
	return res, nil
}

// updateApplier returns the applier for the installed schema, building it on
// first use and rebuilding it when SetSchema installed a different mapping.
func (p *Planner) updateApplier() (*update.Applier, error) {
	p.applierMu.Lock()
	defer p.applierMu.Unlock()
	s := p.schema.Load()
	if p.applier != nil && p.applierFor == s {
		return p.applier, nil
	}
	b := p.backend()
	dml, ok := b.(backend.DML)
	if !ok {
		return nil, &update.Error{Kind: update.ErrUnsupported,
			Msg: "backend cannot apply DML atomically"}
	}
	var probe integrity.Probe
	if rp, ok := b.(interface {
		IntegrityProbe() (integrity.Probe, error)
	}); ok {
		// A backend that can route keyed fetches itself (the sharded
		// composite) beats both store probes and scatter queries: the audit
		// neighborhood loads with point lookups on the owning shard only.
		pp, err := rp.IntegrityProbe()
		if err != nil {
			return nil, err
		}
		probe = pp
	} else if m, ok := b.(*backend.Mem); ok {
		probe = integrity.StoreProbe(m.Store())
	} else {
		sp, err := integrity.NewSourceProbe(b, s)
		if err != nil {
			return nil, err
		}
		probe = sp
	}
	plans := func(path string, safe bool) (*plancache.Plan, error) { return p.planFor(s, path, safe, true) }
	a, err := update.New(s, b, probe, dml, plans, UpdateOptions{})
	if err != nil {
		return nil, err
	}
	p.applier, p.applierFor = a, s
	return a, nil
}
