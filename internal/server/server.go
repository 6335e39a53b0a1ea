// Package server is the network front end over xmlsql.Planner: a
// multi-tenant HTTP/JSON API plus a newline-delimited line protocol, both
// protected by layered admission control.
//
// Many (schema, backend) mappings are hosted in one process. Each tenant
// gets a private planner — its own plan cache, statistics snapshot, and
// integrity trust state — so one tenant's violated instance or cache churn
// never affects another's serving. Requests pass a fixed admission pipeline
// before any engine work happens:
//
//	connection limit → per-tenant rate limit → per-tenant in-flight
//	semaphore → per-query timeout → planner safe mode
//
// Every refusal is a typed retry-after answer (*ShedError; HTTP 429/503 with
// a Retry-After header, "ERR shed_* <retry_after_ms>" on the line protocol),
// so overload turns into fast, bounded backpressure instead of queueing
// collapse. The first four stages are the server's; the last is the
// planner's integrity safe mode, unchanged underneath. A backend's own
// faults are not retried: they reach the client as errors.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xmlsql"
)

// Serving defaults.
const (
	// DefaultMaxConns bounds concurrent connections when Config.MaxConns
	// is zero.
	DefaultMaxConns = 256
	// DefaultDrainTimeout bounds graceful shutdown when Config.DrainTimeout
	// is zero.
	DefaultDrainTimeout = 5 * time.Second
	// DefaultRetryAfter is the shed hint used when a stage cannot compute a
	// better one (capacity sheds, draining, connection refusals).
	DefaultRetryAfter = time.Second
)

// Config tunes a Server. The zero value serves on no listener (use Handler
// with httptest, or set Addr/LineAddr) with default limits.
type Config struct {
	// Addr is the HTTP listen address (e.g. "127.0.0.1:8080"); empty
	// disables the HTTP listener.
	Addr string
	// LineAddr is the line-protocol listen address; empty disables it.
	LineAddr string
	// Limits is the default per-tenant admission configuration; tenants may
	// override it individually (TenantConfig.Limits).
	Limits Limits
	// MaxConns bounds concurrent connections across both listeners;
	// 0 means DefaultMaxConns.
	MaxConns int
	// DrainTimeout bounds Close's graceful drain; 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// RetryAfter is the shed hint for stages without a computable wait;
	// 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Logf receives server logs (shed events, lifecycle, per-tenant
	// summaries); nil means log.Printf.
	Logf func(format string, args ...any)
	// LogRequests additionally logs every served query with its tenant and
	// latency — closed-loop benchmarking wants this off.
	LogRequests bool
}

// Server hosts the tenant registry and the two protocol front ends.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	mu      sync.RWMutex
	tenants map[string]*Tenant

	conns        *connLimiter
	httpSrv      *http.Server
	httpLn       net.Listener
	lineLn       net.Listener
	lineConns    map[net.Conn]struct{}
	lineConnsMu  sync.Mutex
	lineWG       sync.WaitGroup
	acceptWG     sync.WaitGroup
	draining     atomic.Bool
	shedDraining atomic.Int64

	// Shutdown is single-shot: the first caller runs the drain, every
	// concurrent or later caller blocks on shutdownDone and shares the
	// stored error. sync.Once (not an atomic swap) so "safe to call more
	// than once" also means "returns only after the drain finished".
	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error
}

// New creates a Server; add tenants with AddTenant, then Start it (or mount
// Handler in a test server).
func New(cfg Config) *Server {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		cfg:          cfg,
		tenants:      make(map[string]*Tenant),
		conns:        newConnLimiter(cfg.MaxConns),
		lineConns:    make(map[net.Conn]struct{}),
		start:        time.Now(),
		shutdownDone: make(chan struct{}),
	}
	s.mux = s.buildMux()
	return s
}

// AddTenant registers a new mapping under its name. Tenants can be added
// while serving; names must be unique.
func (s *Server) AddTenant(cfg TenantConfig) (*Tenant, error) {
	t, err := newTenant(cfg, s.cfg.Limits)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[cfg.Name]; dup {
		return nil, fmt.Errorf("server: tenant %q already registered", cfg.Name)
	}
	s.tenants[cfg.Name] = t
	return t, nil
}

// Tenant returns a registered tenant, or nil.
func (s *Server) Tenant(name string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// Handler returns the HTTP front end (for tests and embedding). The handler
// enforces every admission stage except the connection limit, which belongs
// to the listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Start opens the configured listeners and begins serving. It returns after
// the listeners are bound (use HTTPAddr/LineAddr for the resolved ports);
// serving continues until Close.
func (s *Server) Start() error {
	if s.cfg.Addr == "" && s.cfg.LineAddr == "" {
		return fmt.Errorf("server: no listen address configured")
	}
	if s.cfg.Addr != "" {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return fmt.Errorf("server: http listen: %w", err)
		}
		s.httpLn = &limitedListener{Listener: ln, limiter: s.conns, reject: s.rejectHTTPConn}
		s.httpSrv = &http.Server{Handler: s.mux}
		s.acceptWG.Add(1)
		go func() {
			defer s.acceptWG.Done()
			if err := s.httpSrv.Serve(s.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.cfg.Logf("server: http serve: %v", err)
			}
		}()
	}
	if s.cfg.LineAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.LineAddr)
		if err != nil {
			if s.httpSrv != nil {
				s.httpSrv.Close()
			}
			return fmt.Errorf("server: line listen: %w", err)
		}
		s.lineLn = &limitedListener{Listener: ln, limiter: s.conns, reject: s.rejectLineConn}
		s.acceptWG.Add(1)
		go s.acceptLines()
	}
	return nil
}

// HTTPAddr returns the bound HTTP address ("" when not listening).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// LineAddr returns the bound line-protocol address ("" when not listening).
func (s *Server) LineAddr() string {
	if s.lineLn == nil {
		return ""
	}
	return s.lineLn.Addr().String()
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// execute runs the admission pipeline and the query for one request,
// whichever protocol it arrived on. The returned error is typed: *ShedError
// for admission refusals, parse/translate/engine errors otherwise.
func (s *Server) execute(ctx context.Context, t *Tenant, query string) (*xmlsql.Result, time.Duration, error) {
	if s.draining.Load() {
		s.shedDraining.Add(1)
		return nil, 0, &ShedError{Reason: ShedDraining, Tenant: t.name, RetryAfter: s.cfg.RetryAfter}
	}
	release, err := t.admit(ctx, s.cfg.RetryAfter)
	if err != nil {
		var shed *ShedError
		if s.cfg.LogRequests && errors.As(err, &shed) {
			s.cfg.Logf("server: tenant=%s shed reason=%s retry_after=%v", t.name, shed.Reason, shed.RetryAfter)
		}
		return nil, 0, err
	}
	defer release()
	res, elapsed, err := t.exec(ctx, query)
	if s.cfg.LogRequests {
		if err != nil {
			s.cfg.Logf("server: tenant=%s query=%q error=%v", t.name, query, err)
		} else {
			s.cfg.Logf("server: tenant=%s query=%q rows=%d elapsed=%v", t.name, query, res.Len(), elapsed)
		}
	}
	return res, elapsed, err
}

// executeUpdate runs the same admission pipeline as execute for a mutation
// batch: writes compete with reads for the tenant's rate and in-flight
// budget, so an update storm sheds instead of starving queries.
func (s *Server) executeUpdate(ctx context.Context, t *Tenant, b xmlsql.UpdateBatch) (*xmlsql.UpdateResult, time.Duration, error) {
	if s.draining.Load() {
		s.shedDraining.Add(1)
		return nil, 0, &ShedError{Reason: ShedDraining, Tenant: t.name, RetryAfter: s.cfg.RetryAfter}
	}
	release, err := t.admit(ctx, s.cfg.RetryAfter)
	if err != nil {
		var shed *ShedError
		if s.cfg.LogRequests && errors.As(err, &shed) {
			s.cfg.Logf("server: tenant=%s shed reason=%s retry_after=%v", t.name, shed.Reason, shed.RetryAfter)
		}
		return nil, 0, err
	}
	defer release()
	res, elapsed, err := t.update(ctx, b)
	if s.cfg.LogRequests {
		if err != nil {
			s.cfg.Logf("server: tenant=%s update muts=%d error=%v", t.name, len(b.Muts), err)
		} else {
			s.cfg.Logf("server: tenant=%s update muts=%d stmts=%d touched=%v elapsed=%v",
				t.name, len(b.Muts), res.Stmts, res.Touched.Relations(), elapsed)
		}
	}
	return res, elapsed, err
}

// Shutdown drains the server gracefully: new work is refused with typed
// draining responses, listeners stop accepting, in-flight queries run to
// completion, durable tenants flush and close their write-ahead logs, and
// only when ctx expires are the survivors cut off. Safe to call from any
// number of goroutines: exactly one runs the drain, the rest block until it
// finishes and return the same error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		defer close(s.shutdownDone)
		s.shutdownErr = s.drain(ctx)
	})
	<-s.shutdownDone
	return s.shutdownErr
}

// drain is the single-shot body of Shutdown.
func (s *Server) drain(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		// http.Server.Shutdown stops accepting, closes idle connections,
		// and waits for active handlers — exactly the drain contract. Our
		// handlers answer 503 + Retry-After to requests racing the drain.
		if e := s.httpSrv.Shutdown(ctx); e != nil && !errors.Is(e, http.ErrServerClosed) {
			err = e
			s.httpSrv.Close()
		}
	}
	if s.lineLn != nil {
		s.lineLn.Close()
		// Wake idle line readers: a connection blocked waiting for its next
		// request gets a read timeout, notices the drain, and exits. A
		// handler mid-query is not disturbed — only its next read fails.
		s.lineConnsMu.Lock()
		for c := range s.lineConns {
			c.SetReadDeadline(time.Now())
		}
		s.lineConnsMu.Unlock()
		if e := waitCtx(ctx, &s.lineWG); e != nil {
			err = errors.Join(err, e)
			// Deadline passed: cut off whatever is still running.
			s.lineConnsMu.Lock()
			for c := range s.lineConns {
				c.Close()
			}
			s.lineConnsMu.Unlock()
			s.lineWG.Wait()
		}
	}
	s.acceptWG.Wait()
	// With the front ends quiet, flush and close every durable tenant's log
	// so a group-commit window still in memory reaches disk before exit.
	for _, name := range s.tenantNames() {
		if t := s.Tenant(name); t != nil {
			if e := t.closeDurable(); e != nil {
				err = errors.Join(err, fmt.Errorf("tenant %s: close wal: %w", name, e))
			}
		}
	}
	s.logSummary()
	return err
}

// Close is Shutdown bounded by the configured DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// waitCtx waits for wg or ctx, whichever finishes first.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// logSummary emits the per-tenant serving counters at shutdown, so a
// short-lived process still leaves its observability behind.
func (s *Server) logSummary() {
	for _, name := range s.tenantNames() {
		t := s.Tenant(name)
		if t == nil {
			continue
		}
		st := t.Stats()
		s.cfg.Logf("server: tenant=%s queries=%d errors=%d shed_rate=%d shed_capacity=%d cache_hits=%d cache_misses=%d evictions=%d safe_mode_serves=%d trust=%s",
			name, st.Queries, st.Errors, st.ShedRate, st.ShedCapacity,
			st.PlanCache.Hits, st.PlanCache.Misses, st.PlanCache.Evictions,
			st.SafeModeServes, st.Trust)
	}
}
