package server

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/resilient"
	"xmlsql/internal/sharded"
	"xmlsql/internal/wal"
)

// Limits is the per-tenant admission-control configuration. The zero value
// means "server defaults" (Config.Limits), whose own zero value means
// unlimited rate and 2×GOMAXPROCS in-flight queries.
type Limits struct {
	// RatePerSec refills the tenant's token bucket; <= 0 disables rate
	// limiting.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity; <= 0 derives one second of refill.
	Burst int `json:"burst"`
	// MaxInFlight bounds concurrently executing queries for the tenant;
	// <= 0 means 2×GOMAXPROCS.
	MaxInFlight int `json:"max_in_flight"`
	// QueueTimeout is how long an over-capacity request may wait for an
	// in-flight slot before being shed. 0 sheds immediately — the
	// no-unbounded-queueing default.
	QueueTimeout time.Duration `json:"queue_timeout_ns"`
}

// withDefaults resolves zero fields to serving defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	return l
}

// TenantConfig declares one (schema, backend) mapping hosted by the server.
type TenantConfig struct {
	// Name addresses the tenant in every request; unique per server.
	Name string
	// Schema is the tenant's annotated XML-to-Relational mapping.
	Schema *xmlsql.Schema
	// Backend, when non-nil, is where the tenant's queries execute (it
	// should already hold the tenant's shredded documents). Nil gets a
	// fresh in-memory backend.
	Backend xmlsql.Backend
	// Planner tunes the tenant's private planner (cache size, timeout,
	// trust policy). Planner.Backend is overridden by
	// Backend when that is set.
	Planner xmlsql.PlannerConfig
	// Limits overrides the server's default per-tenant admission limits.
	Limits *Limits

	// DataDir, when set, makes the tenant durable: its store is recovered
	// from the write-ahead log in this directory on boot, and every update
	// batch is logged (and fsynced, per WAL's sync policy) before it is
	// acknowledged. Mutually exclusive with Backend — a durable store is
	// rebuilt from its log, not handed in.
	DataDir string
	// WAL tunes the durable tenant's log (group-commit window, snapshot
	// cadence). Ignored unless DataDir is set.
	WAL wal.Options
	// Load populates a durable tenant's store on first boot (no snapshot on
	// disk yet); after it returns, a base checkpoint is written. Ignored
	// unless DataDir is set; nil starts the tenant empty. Incompatible with
	// Shards > 1 (a composite has no single store) — use LoadBackend there.
	Load func(*backend.Mem) error

	// Shards > 1 document-partitions the tenant across that many in-memory
	// stores and serves it through the sharded scatter-gather composite.
	// Durable sharded tenants (DataDir set) recover each shard from its own
	// log under DataDir/shard-<k>. Mutually exclusive with Backend.
	Shards int
	// LoadBackend populates a first-boot tenant through the full backend
	// interface (works for both single-store and sharded tenants); for a
	// volatile sharded tenant it runs at construction. Preferred over Load.
	LoadBackend func(xmlsql.Backend) error
}

// Tenant is one hosted mapping: a private planner (its own plan cache,
// statistics snapshot, and trust state), a private token bucket and
// in-flight semaphore, and private serving counters. Nothing is shared
// across tenants except the process-wide connection limit, so one tenant's
// violated trust state, cache pressure, or overload never leaks into
// another's serving.
type Tenant struct {
	name    string
	planner *xmlsql.Planner
	limits  Limits
	bucket  *tokenBucket
	sem     chan struct{}

	// Durability (empty / zero for volatile tenants). Sharded durable
	// tenants have one log manager per shard.
	wals         []*wal.Manager
	recoveryInfo *wal.RecoveryInfo
	recovery     atomic.Value // RecoveryState

	queries      atomic.Int64
	errors       atomic.Int64
	shedRate     atomic.Int64
	shedCapacity atomic.Int64
	inFlight     atomic.Int64
	execNs       atomic.Int64
}

func newTenant(cfg TenantConfig, defaults Limits) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: tenant name must not be empty")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("server: tenant %q has no schema", cfg.Name)
	}
	limits := defaults
	if cfg.Limits != nil {
		limits = *cfg.Limits
	}
	limits = limits.withDefaults()
	pc := cfg.Planner
	if cfg.Backend != nil {
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("server: tenant %q: Shards and Backend are mutually exclusive (the composite is built from the shard count)", cfg.Name)
		}
		pc.Backend = cfg.Backend
	}
	var db *durableBackend
	switch {
	case cfg.DataDir != "":
		if cfg.Backend != nil {
			return nil, fmt.Errorf("server: tenant %q: DataDir and Backend are mutually exclusive (a durable store is recovered from its log)", cfg.Name)
		}
		var err error
		if db, err = openDurable(cfg); err != nil {
			return nil, err
		}
		pc.Backend = db.b
	case cfg.Shards > 1:
		// Volatile sharded tenant: document-partitioned in-memory composite.
		comp, err := sharded.NewMem(cfg.Shards, sharded.Options{})
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", cfg.Name, err)
		}
		if err := comp.EnsureSchema(cfg.Schema); err != nil {
			return nil, fmt.Errorf("server: tenant %q: ensure schema: %w", cfg.Name, err)
		}
		if cfg.LoadBackend != nil {
			if err := cfg.LoadBackend(comp); err != nil {
				return nil, fmt.Errorf("server: tenant %q: load: %w", cfg.Name, err)
			}
		}
		pc.Backend = comp
	}
	t := &Tenant{
		name:    cfg.Name,
		planner: xmlsql.NewPlannerWith(cfg.Schema, pc),
		limits:  limits,
		bucket:  newTokenBucket(limits.RatePerSec, limits.Burst),
		sem:     make(chan struct{}, limits.MaxInFlight),
	}
	t.recovery.Store(RecoveryVolatile)
	if db != nil {
		t.wals = db.mgrs
		t.recoveryInfo = db.info
		t.recovery.Store(RecoveryRecovering)
		state, err := verifyReplay(t.planner, cfg.Schema, db)
		if err != nil {
			db.closeAll()
			return nil, err
		}
		t.recovery.Store(state)
	}
	return t, nil
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// Planner exposes the tenant's private planner (audits, explain, tests).
func (t *Tenant) Planner() *xmlsql.Planner { return t.planner }

// RecoveryState reports the tenant's durability lifecycle state.
func (t *Tenant) RecoveryState() RecoveryState {
	return t.recovery.Load().(RecoveryState)
}

// RecoveryInfo returns what boot-time recovery found (nil for volatile
// tenants): snapshot LSN, replayed batch count, truncation, elapsed time.
func (t *Tenant) RecoveryInfo() *wal.RecoveryInfo { return t.recoveryInfo }

// WAL exposes the tenant's log manager (nil for volatile tenants; the first
// shard's for sharded tenants) so tests and operators can force checkpoints
// or read durability counters.
func (t *Tenant) WAL() *wal.Manager {
	if len(t.wals) == 0 {
		return nil
	}
	return t.wals[0]
}

// WALs exposes every log manager of a sharded durable tenant, in shard
// order (nil for volatile tenants).
func (t *Tenant) WALs() []*wal.Manager { return t.wals }

// closeDurable flushes and closes the tenant's WAL(s), releasing any
// group-commit window to disk. No-op for volatile tenants; idempotent.
func (t *Tenant) closeDurable() error {
	var first error
	for _, m := range t.wals {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// admit runs the per-tenant admission stages in order — token bucket, then
// bounded in-flight semaphore — returning a release function on success and
// a typed *ShedError on refusal.
func (t *Tenant) admit(ctx context.Context, fallbackRetryAfter time.Duration) (func(), error) {
	ok, wait := t.bucket.allow()
	if !ok {
		t.shedRate.Add(1)
		return nil, &ShedError{Reason: ShedRate, Tenant: t.name, RetryAfter: wait}
	}
	select {
	case t.sem <- struct{}{}:
	default:
		if t.limits.QueueTimeout <= 0 {
			t.shedCapacity.Add(1)
			return nil, &ShedError{Reason: ShedCapacity, Tenant: t.name, RetryAfter: fallbackRetryAfter}
		}
		timer := time.NewTimer(t.limits.QueueTimeout)
		defer timer.Stop()
		select {
		case t.sem <- struct{}{}:
		case <-timer.C:
			t.shedCapacity.Add(1)
			return nil, &ShedError{Reason: ShedCapacity, Tenant: t.name, RetryAfter: fallbackRetryAfter}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t.inFlight.Add(1)
	return func() {
		t.inFlight.Add(-1)
		<-t.sem
	}, nil
}

// exec runs one admitted query through the tenant's planner, recording the
// outcome counters.
func (t *Tenant) exec(ctx context.Context, query string) (*xmlsql.Result, time.Duration, error) {
	start := time.Now()
	res, err := t.planner.Exec(ctx, query)
	elapsed := time.Since(start)
	t.queries.Add(1)
	t.execNs.Add(elapsed.Nanoseconds())
	if err != nil {
		t.errors.Add(1)
	}
	return res, elapsed, err
}

// update applies one admitted mutation batch through the tenant's planner.
// The planner tracks the applied/rejected counters; the tenant's error
// counter still moves so /stats error rates cover writes too.
func (t *Tenant) update(ctx context.Context, b xmlsql.UpdateBatch) (*xmlsql.UpdateResult, time.Duration, error) {
	start := time.Now()
	res, err := t.planner.Update(ctx, b)
	elapsed := time.Since(start)
	if err != nil {
		t.errors.Add(1)
	}
	return res, elapsed, err
}

// PlanCacheStats is the tenant's plan-cache counter snapshot on /stats.
type PlanCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// TenantStats is one tenant's /stats entry: serving counters, shed
// counters, plan-cache and integrity counters from the tenant's private
// planner, and — where the backend exposes them — resilience counters.
// Everything here is per tenant, not process-global.
type TenantStats struct {
	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	InFlight int64 `json:"in_flight"`
	// ShedRate / ShedCapacity count typed refusals by admission stage.
	ShedRate     int64 `json:"shed_rate"`
	ShedCapacity int64 `json:"shed_capacity"`
	// MeanExecNs is the mean served-query latency (admitted queries only).
	MeanExecNs float64 `json:"mean_exec_ns"`

	PlanCache PlanCacheStats `json:"plan_cache"`

	Audits          int64  `json:"audits"`
	ViolationsFound int64  `json:"violations_found"`
	SafeModeServes  int64  `json:"safe_mode_serves"`
	Updates         int64  `json:"updates"`
	UpdateRejects   int64  `json:"update_rejects"`
	Trust           string `json:"trust"`
	// Recovery is the durability lifecycle state ("volatile" when the tenant
	// has no write-ahead log).
	Recovery string `json:"recovery"`

	Resilient *resilient.Stats `json:"resilient,omitempty"`

	Limits Limits `json:"limits"`
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() TenantStats {
	ps := t.planner.Stats()
	st := TenantStats{
		Queries:      t.queries.Load(),
		Errors:       t.errors.Load(),
		InFlight:     t.inFlight.Load(),
		ShedRate:     t.shedRate.Load(),
		ShedCapacity: t.shedCapacity.Load(),
		PlanCache: PlanCacheStats{
			Hits: ps.Hits, Misses: ps.Misses, Evictions: ps.Evictions, Entries: ps.Entries,
		},
		Audits:          ps.Audits,
		ViolationsFound: ps.ViolationsFound,
		SafeModeServes:  ps.SafeModeServes,
		Updates:         ps.Updates,
		UpdateRejects:   ps.UpdateRejects,
		Trust:           ps.Trust.String(),
		Recovery:        string(t.RecoveryState()),
		Limits:          t.limits,
	}
	if q := st.Queries; q > 0 {
		st.MeanExecNs = float64(t.execNs.Load()) / float64(q)
	}
	if rb, ok := t.planner.Backend().(*resilient.Backend); ok {
		rs := rb.Stats()
		st.Resilient = &rs
	}
	return st
}

// tenantNames returns the registered names, sorted.
func (s *Server) tenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
