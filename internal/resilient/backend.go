package resilient

import (
	"context"
	"fmt"
	"sync/atomic"

	"xmlsql/internal/backend"
	"xmlsql/internal/engine"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/xmltree"
)

// Options configures Wrap.
type Options struct {
	// Retry tunes the transient-failure retry loop (zero value = defaults).
	Retry RetryPolicy
	// Breaker tunes the primary's circuit breaker (zero value = defaults).
	Breaker BreakerConfig
	// Fallback, when non-nil, serves queries the primary could not: breaker
	// open, retries exhausted, or a permanent primary error. The usual
	// choice is a Mem backend holding a shredded copy of the same documents
	// (set MirrorLoads so it stays resident and current). Canceled and
	// budget-exceeded errors never fall back — those belong to the caller.
	Fallback backend.Backend
	// MirrorLoads applies EnsureSchema and Load to the Fallback as well as
	// the primary, keeping the degraded copy row-for-row current.
	MirrorLoads bool
}

// Stats is a point-in-time snapshot of a wrapped backend's counters. The
// JSON tags are the /stats wire names the serving front end exposes per
// tenant.
type Stats struct {
	// Executes counts Execute calls.
	Executes int64 `json:"executes"`
	// Retries counts primary re-attempts beyond each first try.
	Retries int64 `json:"retries"`
	// PrimaryFailures counts Execute calls the primary definitively failed
	// (after retries).
	PrimaryFailures int64 `json:"primary_failures"`
	// BreakerTrips counts breaker openings.
	BreakerTrips int64 `json:"breaker_trips"`
	// Fallbacks counts queries served by (or attempted on) the fallback.
	Fallbacks int64 `json:"fallbacks"`
}

// Backend wraps a primary backend.Backend with retry, circuit breaking, and
// graceful degradation. It implements backend.Backend, so it drops into any
// caller — xmlsql.Planner included — unchanged.
type Backend struct {
	primary backend.Backend
	opts    Options
	breaker *Breaker

	executes        atomic.Int64
	retries         atomic.Int64
	primaryFailures atomic.Int64
	fallbacks       atomic.Int64
}

// Wrap builds the resilient wrapper around primary.
func Wrap(primary backend.Backend, opts Options) *Backend {
	return &Backend{primary: primary, opts: opts, breaker: NewBreaker(opts.Breaker)}
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return "resilient(" + b.primary.Name() + ")" }

// Breaker exposes the primary's circuit breaker (tests and dashboards).
func (b *Backend) Breaker() *Breaker { return b.breaker }

// Primary exposes the wrapped backend, so callers can reach capabilities the
// wrapper does not re-export (e.g. a sharded topology, or the in-memory store
// behind a Mem) without holding a second reference to it.
func (b *Backend) Primary() backend.Backend { return b.primary }

// Stats snapshots the counters.
func (b *Backend) Stats() Stats {
	return Stats{
		Executes:        b.executes.Load(),
		Retries:         b.retries.Load(),
		PrimaryFailures: b.primaryFailures.Load(),
		BreakerTrips:    b.breaker.Trips(),
		Fallbacks:       b.fallbacks.Load(),
	}
}

// EnsureSchema implements backend.Backend, mirroring to the fallback when
// configured.
func (b *Backend) EnsureSchema(s *schema.Schema) error {
	if err := b.primary.EnsureSchema(s); err != nil {
		return err
	}
	if b.opts.MirrorLoads && b.opts.Fallback != nil {
		return b.opts.Fallback.EnsureSchema(s)
	}
	return nil
}

// Load implements backend.Backend, mirroring to the fallback when
// configured. The primary's shred results are returned; the mirror must
// agree on tuple counts or the load fails loudly rather than leaving a
// degraded copy that would diverge.
func (b *Backend) Load(s *schema.Schema, docs ...*xmltree.Document) ([]*shred.Result, error) {
	results, err := b.primary.Load(s, docs...)
	if err != nil {
		return nil, err
	}
	if b.opts.MirrorLoads && b.opts.Fallback != nil {
		mirror, err := b.opts.Fallback.Load(s, docs...)
		if err != nil {
			return nil, fmt.Errorf("resilient: mirroring load to fallback: %w", err)
		}
		for i := range results {
			if results[i].Tuples != mirror[i].Tuples {
				return nil, fmt.Errorf("resilient: fallback mirror diverged on document %d: %d tuples vs %d",
					i, mirror[i].Tuples, results[i].Tuples)
			}
		}
	}
	return results, nil
}

// Execute implements backend.Backend: breaker check, retried primary
// attempt, then degradation.
func (b *Backend) Execute(ctx context.Context, q *sqlast.Query) (*engine.Result, error) {
	b.executes.Add(1)
	if !b.breaker.Allow() {
		return b.degrade(ctx, q, ErrBreakerOpen)
	}
	var res *engine.Result
	retries, err := Retry(ctx, b.opts.Retry, func() error {
		var e error
		res, e = b.primary.Execute(ctx, q)
		return e
	})
	b.retries.Add(int64(retries))
	if err == nil {
		b.breaker.Record(false)
		return res, nil
	}
	switch Classify(err) {
	case ClassCanceled, ClassBudget:
		// The caller's context or the query's own budget: not the backend's
		// fault, so the breaker doesn't hear about it, and no fallback — the
		// fallback would be cancelled/over budget just the same.
		b.breaker.Record(false)
		return nil, err
	}
	b.primaryFailures.Add(1)
	b.breaker.Record(true)
	return b.degrade(ctx, q, err)
}

// degrade serves from the fallback, or reports why it could not.
func (b *Backend) degrade(ctx context.Context, q *sqlast.Query, cause error) (*engine.Result, error) {
	if b.opts.Fallback == nil {
		return nil, fmt.Errorf("resilient: %s unavailable and no fallback configured: %w", b.primary.Name(), cause)
	}
	b.fallbacks.Add(1)
	res, err := b.opts.Fallback.Execute(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("resilient: fallback %s also failed: %v (primary: %w)",
			b.opts.Fallback.Name(), err, cause)
	}
	return res, nil
}

// Close implements backend.Backend, closing the primary and (when mirroring
// owns it) the fallback.
func (b *Backend) Close() error {
	err := b.primary.Close()
	if b.opts.Fallback != nil {
		if ferr := b.opts.Fallback.Close(); err == nil {
			err = ferr
		}
	}
	return err
}
