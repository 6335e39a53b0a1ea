package fakedb

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// InjectedError is the error the fault injector returns for a simulated
// backend failure. It implements the net.Error-style Temporary method, so a
// caller can tell it transient without importing this package. The error
// crosses the database/sql boundary intact: callers above the *sql.DB see
// exactly what they would see from a flaky real driver, and errors.As finds
// it through the backend's wrapping.
type InjectedError struct {
	// Op names the operation the fault interrupted: "exec", "query", or
	// "row" for a mid-resultset failure.
	Op string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return "fakedb: injected transient fault during " + e.Op
}

// Temporary marks the fault as transient (retry-worthy).
func (e *InjectedError) Temporary() bool { return true }

// FaultConfig programs the fault injector of one fake database instance.
// The zero value injects nothing. All probabilities draw from a private
// rand.Rand seeded with Seed, so a given (config, workload) pair replays the
// exact same fault schedule on every run — chaos tests stay deterministic.
type FaultConfig struct {
	// Seed seeds the injector's PRNG (0 is a valid, fixed seed).
	Seed int64
	// ExecErrorRate is the probability in [0,1] that a statement execution
	// (Exec or Query entry) fails with an *InjectedError before running.
	ExecErrorRate float64
	// FailFirst makes the first N operations fail unconditionally, then
	// stops injecting by count (rates still apply): the
	// "fail-N-then-succeed" pattern.
	FailFirst int
	// Latency is added to every operation before it runs, simulating a slow
	// or saturated backend. Sleeps are context-aware where a context is
	// available, so deadlines still cut them short.
	Latency time.Duration
	// RowErrorRate is the probability in [0,1] that a query's resultset
	// fails mid-iteration: the rows deliver normally until a random
	// position, then Next returns an *InjectedError — the partial-resultset
	// failure mode, which must fail the whole query, never truncate it.
	RowErrorRate float64
}

// faultInjector holds the mutable fault state of a DB instance. A nil
// injector (the default) is fully inert.
type faultInjector struct {
	mu  sync.Mutex
	cfg FaultConfig
	rng *rand.Rand
	ops int   // operations seen, for FailFirst
	n   int64 // faults injected, for stats
}

// SetFaults installs (or, with a zero config, clears) the instance's fault
// plan. Safe to call while connections are live; subsequent operations see
// the new plan.
func (db *DB) SetFaults(cfg FaultConfig) {
	inj := &faultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	db.faults.Store(inj)
}

// ClearFaults removes the fault plan entirely.
func (db *DB) ClearFaults() { db.faults.Store((*faultInjector)(nil)) }

// InjectedFaults reports how many faults the instance has injected since the
// last SetFaults.
func (db *DB) InjectedFaults() int64 {
	inj := db.faults.Load()
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.n
}

// before runs the pre-operation fault schedule: latency first (a slow
// backend is slow whether or not it then fails), then fail-first, then the
// random error rate. ctx bounds the latency sleep; pass nil for legacy
// non-context driver entry points.
func (inj *faultInjector) before(ctx context.Context, op string) error {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	cfg := inj.cfg
	inj.ops++
	failByCount := inj.ops <= cfg.FailFirst
	failByRate := cfg.ExecErrorRate > 0 && inj.rng.Float64() < cfg.ExecErrorRate
	fail := failByCount || failByRate
	if fail {
		inj.n++
	}
	inj.mu.Unlock()

	if cfg.Latency > 0 {
		if ctx == nil {
			time.Sleep(cfg.Latency)
		} else {
			t := time.NewTimer(cfg.Latency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	if fail {
		return &InjectedError{Op: op}
	}
	return nil
}

// rowFailure decides whether a resultset of total rows should fail midway,
// returning the 0-based row index at which Next errors (and true), or false
// for a clean resultset.
func (inj *faultInjector) rowFailure(total int) (int, bool) {
	if inj == nil || total == 0 {
		return 0, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.cfg.RowErrorRate <= 0 || inj.rng.Float64() >= inj.cfg.RowErrorRate {
		return 0, false
	}
	inj.n++
	return inj.rng.Intn(total), true
}
