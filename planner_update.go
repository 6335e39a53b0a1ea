package xmlsql

import (
	"context"

	"xmlsql/internal/backend"
	"xmlsql/internal/integrity"
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
	// statement count, and the incremental audits around it.
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
//     so no write can make one wrong. An adaptive entry re-validates its
//     decision by statistics fingerprint (see planAdaptive).
//   - The in-memory backend folded the batch's change list into its
//     statistics at commit; a probed snapshot (database backends) is dropped
//     so the next adaptive plan re-probes.
//   - Trust transitions follow the incremental audit of the touched
//     neighborhood: a clean audit leaves TrustVerified standing without a
//     global scan (the batch demonstrably preserved the constraint where it
//     wrote), while detected pre-existing dirt flips the planner to
//     TrustViolated scoped to the violating relations.
//
// Updates are accepted in every trust state — on a TrustViolated instance
// they are the repair vector (each batch is still validated against P1–P3
// before applying, so updates never make the instance dirtier). A failed or
// faulted batch changes nothing: validation happens before any write, and the
// backend applies the statements transactionally.
func (p *Planner) Update(ctx context.Context, b UpdateBatch) (*UpdateResult, error) {
	a, err := p.updateApplier()
	if err != nil {
		p.updateRejects.Add(1)
		return nil, err
	}
	res, err := a.Apply(ctx, b)
	if err != nil {
		p.updateRejects.Add(1)
		return nil, err
	}
	p.updates.Add(1)

	p.probed.Store(nil)

	switch {
	case !res.Audit.Clean():
		// The post-apply audit of the touched neighborhood found dirt. The
		// batch itself validated clean pre-apply, so this is pre-existing
		// (or a concurrent external writer); either way the instance is not
		// trustworthy there.
		p.violations.Add(int64(res.Audit.Total))
		p.lastAudit.Store(res.Audit)
		p.setTrust(TrustViolated, violatedRelations(res.Audit))
	case res.Preexisting != nil:
		p.violations.Add(int64(res.Preexisting.Total))
		p.lastAudit.Store(res.Preexisting)
		p.setTrust(TrustViolated, violatedRelations(res.Preexisting))
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
	dml, ok := dmlCapability(b)
	if !ok {
		return nil, &update.Error{Kind: update.ErrUnsupported,
			Msg: "backend cannot apply DML atomically"}
	}
	var probe integrity.Probe
	if rp, ok := probeCapability(b); ok {
		// A backend that can route keyed fetches itself (the sharded
		// composite) beats both store probes and scatter queries: the audit
		// neighborhood loads with point lookups on the owning shard only.
		pp, err := rp.IntegrityProbe()
		if err != nil {
			return nil, err
		}
		probe = pp
	} else if m, ok := memBackend(b); ok {
		probe = integrity.StoreProbe(m.Store())
	} else {
		sp, err := integrity.NewSourceProbe(b, s)
		if err != nil {
			return nil, err
		}
		probe = sp
	}
	// Target resolution and audit probes read through b itself, so a
	// resilient wrapper's retries and circuit breaker still protect the
	// read side of every update.
	a, err := update.New(s, b, probe, dml, UpdateOptions{})
	if err != nil {
		return nil, err
	}
	p.applier, p.applierFor = a, s
	return a, nil
}

// dmlCapability finds a backend's transactional DML capability, unwrapping
// resilience layers via their Primary() accessor: a retry loop must not
// re-apply a possibly-half-committed batch, so updates go straight to the
// primary, whose ApplyDML is all-or-nothing by contract.
func dmlCapability(b Backend) (backend.DML, bool) {
	for b != nil {
		if d, ok := b.(backend.DML); ok {
			return d, true
		}
		w, ok := b.(interface{ Primary() Backend })
		if !ok {
			return nil, false
		}
		b = w.Primary()
	}
	return nil, false
}

// probeCapability finds a backend that supplies its own routed
// integrity.Probe (the sharded composite), unwrapping resilience layers.
func probeCapability(b Backend) (interface{ IntegrityProbe() (integrity.Probe, error) }, bool) {
	for b != nil {
		if p, ok := b.(interface {
			IntegrityProbe() (integrity.Probe, error)
		}); ok {
			return p, true
		}
		w, ok := b.(interface{ Primary() Backend })
		if !ok {
			return nil, false
		}
		b = w.Primary()
	}
	return nil, false
}

// memBackend unwraps to the in-memory backend, if that is what ultimately
// holds the tuples (possibly behind a resilience layer).
func memBackend(b Backend) (*backend.Mem, bool) {
	for b != nil {
		if m, ok := b.(*backend.Mem); ok {
			return m, true
		}
		w, ok := b.(interface{ Primary() Backend })
		if !ok {
			return nil, false
		}
		b = w.Primary()
	}
	return nil, false
}
