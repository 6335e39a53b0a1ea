package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xmlsql"
	"xmlsql/internal/server"
	"xmlsql/internal/workloads"
)

// FrontendComparison is one closed-loop run against a live serving front
// end: N clients, each issuing its next query the moment the previous one
// answers, for a fixed wall-clock window. Under-capacity runs (offered load
// below the tenant's limits) must not shed; overload runs (clients far
// beyond the in-flight bound) must shed with typed retry-after errors while
// the accepted queries' tail latency stays bounded — the no-queueing-
// collapse property the admission pipeline exists for.
type FrontendComparison struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"` // "http" or "line"
	Mode     string `json:"mode"`     // "under" (below capacity) or "over" (overload)
	Clients  int    `json:"clients"`
	// InFlightLimit is the tenant's admission bound for the run.
	InFlightLimit int     `json:"in_flight_limit"`
	DurationMs    float64 `json:"duration_ms"`
	// RateLimit is the tenant's token-bucket rate for the run (0 =
	// unlimited).
	RateLimit float64 `json:"rate_limit,omitempty"`
	// Completed counts accepted, successfully answered queries; Shed counts
	// typed admission refusals; Errors counts everything else.
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`
	// QPS is sustained completed queries per second over the window.
	QPS float64 `json:"qps"`
	// ShedRate is Shed / (Completed + Shed).
	ShedRate float64 `json:"shed_rate"`
	// Latency percentiles over the accepted queries only (round-trip,
	// client-observed).
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MeanNs float64 `json:"mean_ns"`
	// Exec percentiles are the server-reported per-query execution times
	// (the elapsed_ns both protocols return with each answer): admission
	// wait excluded, post-admission queueing included. The overload gate
	// compares these rather than round-trip times, because with driver and
	// server sharing one process the round trip also counts the driver's
	// own goroutine-scheduling delays, which say nothing about the server.
	ExecP50Ns  float64 `json:"exec_p50_ns"`
	ExecP99Ns  float64 `json:"exec_p99_ns"`
	ExecP999Ns float64 `json:"exec_p999_ns"`
}

// DriveConfig aims a closed-loop client fleet at one tenant of a live
// server (in-process or a separate xmlserve process — only the address
// matters).
type DriveConfig struct {
	// Protocol selects the front end: "http" or "line".
	Protocol string
	// Addr is the server's host:port for that protocol.
	Addr   string
	Tenant string
	Query  string
	// Clients is the closed-loop fleet size.
	Clients int
	// Duration is the measurement window.
	Duration time.Duration
	// ShedPause is the minimum back-off after a shed or error; 0 means 1ms.
	// When the server's typed shed response carries a retry-after hint
	// (retry_after_ms in the HTTP error body, the second ERR field on the
	// line protocol), the client honors it, clamped to
	// [ShedPause, MaxShedPause].
	ShedPause time.Duration
	// MaxShedPause caps the honored retry-after hint so a conservative
	// server hint cannot idle the fleet mid-window; 0 means 100ms.
	MaxShedPause time.Duration
}

// Drive runs one closed-loop measurement. Every client issues requests
// back-to-back until the window closes; accepted-query latencies are merged
// and summarized into percentiles.
func Drive(cfg DriveConfig) (*FrontendComparison, error) {
	if cfg.Clients <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("bench: Drive wants positive Clients and Duration")
	}
	if cfg.ShedPause <= 0 {
		cfg.ShedPause = time.Millisecond
	}
	if cfg.MaxShedPause <= 0 {
		cfg.MaxShedPause = 100 * time.Millisecond
	}
	backoff := func(hint time.Duration) time.Duration {
		if hint < cfg.ShedPause {
			hint = cfg.ShedPause
		}
		if hint > cfg.MaxShedPause {
			hint = cfg.MaxShedPause
		}
		// Jitter to ±50%: a fleet honoring identical retry-after hints would
		// otherwise wake as one herd, colliding with whichever query was just
		// admitted and inflating the accepted tail for no admission-related
		// reason.
		return hint/2 + time.Duration(rand.Int63n(int64(hint)+1))
	}
	type clientResult struct {
		lats      []int64
		execs     []int64
		shed      int64
		errs      int64
		lastError error
	}
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(r *clientResult) {
			defer wg.Done()
			var c frontendClient
			switch cfg.Protocol {
			case "line":
				c = &lineClient{addr: cfg.Addr}
			case "http", "":
				c = newHTTPClient(cfg.Addr)
			default:
				r.errs++
				r.lastError = fmt.Errorf("unknown protocol %q", cfg.Protocol)
				return
			}
			defer c.close()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				rep, e := c.query(cfg.Tenant, cfg.Query)
				lat := time.Since(t0)
				switch {
				case e != nil:
					r.errs++
					r.lastError = e
					time.Sleep(cfg.ShedPause)
				case rep.out == outcomeOK:
					r.lats = append(r.lats, lat.Nanoseconds())
					r.execs = append(r.execs, rep.serverNs)
				case rep.out == outcomeShed:
					r.shed++
					time.Sleep(backoff(rep.retryAfter))
				}
			}
		}(&results[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	cmp := &FrontendComparison{
		Protocol:   cfg.Protocol,
		Mode:       "",
		Clients:    cfg.Clients,
		DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
	}
	var all, execs []int64
	var lastErr error
	for i := range results {
		all = append(all, results[i].lats...)
		execs = append(execs, results[i].execs...)
		cmp.Shed += results[i].shed
		cmp.Errors += results[i].errs
		if results[i].lastError != nil {
			lastErr = results[i].lastError
		}
	}
	cmp.Completed = int64(len(all))
	if cmp.Completed == 0 && lastErr != nil {
		return nil, fmt.Errorf("bench: frontend drive completed nothing (%d errors, last: %w)", cmp.Errors, lastErr)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		cmp.QPS = float64(cmp.Completed) / secs
	}
	if n := cmp.Completed + cmp.Shed; n > 0 {
		cmp.ShedRate = float64(cmp.Shed) / float64(n)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cmp.P50Ns = percentile(all, 0.50)
	cmp.P99Ns = percentile(all, 0.99)
	cmp.P999Ns = percentile(all, 0.999)
	var sum int64
	for _, l := range all {
		sum += l
	}
	if len(all) > 0 {
		cmp.MeanNs = float64(sum) / float64(len(all))
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i] < execs[j] })
	cmp.ExecP50Ns = percentile(execs, 0.50)
	cmp.ExecP99Ns = percentile(execs, 0.99)
	cmp.ExecP999Ns = percentile(execs, 0.999)
	return cmp, nil
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx])
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
)

// reply is one request's outcome: the server-reported execution time on
// success, the server's retry-after hint on sheds.
type reply struct {
	out        outcome
	serverNs   int64
	retryAfter time.Duration
}

// frontendClient is one closed-loop client of either protocol.
type frontendClient interface {
	query(tenant, query string) (reply, error)
	close()
}

// httpClient drives GET /query with keep-alive connections.
type httpClient struct {
	base   string
	client *http.Client
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
			Timeout:   30 * time.Second,
		},
	}
}

func (c *httpClient) query(tenant, query string) (reply, error) {
	u := c.base + "/query?tenant=" + url.QueryEscape(tenant) + "&q=" + url.QueryEscape(query)
	resp, err := c.client.Get(u)
	if err != nil {
		return reply{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		var qr struct {
			ElapsedNs int64 `json:"elapsed_ns"`
		}
		json.NewDecoder(resp.Body).Decode(&qr)
		return reply{out: outcomeOK, serverNs: qr.ElapsedNs}, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// The typed shed body carries a millisecond retry-after hint.
		var er struct {
			Error struct {
				RetryAfterMs int64 `json:"retry_after_ms"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&er)
		return reply{out: outcomeShed, retryAfter: time.Duration(er.Error.RetryAfterMs) * time.Millisecond}, nil
	default:
		return reply{}, fmt.Errorf("http %d from /query", resp.StatusCode)
	}
}

func (c *httpClient) close() { c.client.CloseIdleConnections() }

// lineClient drives the Q verb over one persistent line-protocol
// connection, redialing if the server cuts it (connection-limit sheds close
// the connection after the ERR line).
type lineClient struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
}

func (c *lineClient) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	return nil
}

func (c *lineClient) query(tenant, query string) (reply, error) {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return reply{}, err
		}
	}
	if _, err := fmt.Fprintf(c.conn, "Q %s %s\n", tenant, query); err != nil {
		c.close()
		return reply{}, err
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		c.close()
		return reply{}, err
	}
	switch {
	case strings.HasPrefix(resp, "OK "):
		// "OK <rows> <elapsed_ns>"
		var serverNs int64
		if f := strings.Fields(resp); len(f) >= 3 {
			serverNs, _ = strconv.ParseInt(f[2], 10, 64)
		}
		return reply{out: outcomeOK, serverNs: serverNs}, nil
	case strings.HasPrefix(resp, "ERR shed_") || strings.HasPrefix(resp, "ERR draining"):
		// "ERR <code> <retry_after_ms> <message>" — honor the hint.
		var hint time.Duration
		if f := strings.Fields(resp); len(f) >= 3 {
			if ms, err := strconv.ParseInt(f[2], 10, 64); err == nil {
				hint = time.Duration(ms) * time.Millisecond
			}
		}
		// Connection-limit sheds arrive on a connection the server is about
		// to close; drop ours so the next attempt redials.
		if strings.HasPrefix(resp, "ERR shed_connections") || strings.HasPrefix(resp, "ERR draining") {
			c.close()
		}
		return reply{out: outcomeShed, retryAfter: hint}, nil
	default:
		return reply{}, fmt.Errorf("line protocol: %s", strings.TrimSpace(resp))
	}
}

func (c *lineClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.r = nil
	}
}

// FrontendConfig sizes RunFrontend's closed-loop suite.
type FrontendConfig struct {
	// Duration is the per-run measurement window; 0 means 400ms.
	Duration time.Duration
	// UnderClients is the under-capacity fleet; 0 means 4.
	UnderClients int
	// OverClients is the overload fleet; 0 means 16.
	OverClients int
	// OverInFlight is the overloaded tenant's in-flight bound; 0 means 2.
	OverInFlight int
	// OverRate is the overloaded tenant's token-bucket rate in queries per
	// second; 0 means 200. This, not the in-flight bound, is what defines
	// the tight tenant's capacity portably: on a single-core box,
	// sub-millisecond queries run to completion between scheduling points,
	// so an in-flight semaphore alone can sit empty while requests queue
	// invisibly in the runtime scheduler.
	OverRate float64
}

func (c FrontendConfig) withDefaults() FrontendConfig {
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.UnderClients <= 0 {
		c.UnderClients = 4
	}
	if c.OverClients <= 0 {
		c.OverClients = 16
	}
	if c.OverInFlight <= 0 {
		c.OverInFlight = 2
	}
	if c.OverRate <= 0 {
		c.OverRate = 200
	}
	return c
}

// frontendWorkload is one tenant pair (generous + tight limits over the same
// shredded store) the suite measures.
type frontendWorkload struct {
	name  string
	query string
}

// RunFrontend starts an in-process serving front end (real TCP listeners on
// loopback, both protocols) hosting each workload twice — once with
// generous limits, once with a tight in-flight bound — and measures
// closed-loop under-capacity and overload runs against each protocol.
func RunFrontend(cfg FrontendConfig) ([]*FrontendComparison, error) {
	cfg = cfg.withDefaults()

	srv := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		LineAddr: "127.0.0.1:0",
		Limits: server.Limits{
			MaxInFlight: maxInt(2*runtime.GOMAXPROCS(0), 2*cfg.UnderClients),
		},
		MaxConns: 4 * (cfg.UnderClients + cfg.OverClients),
		Logf:     func(string, ...any) {},
	})

	type wl struct {
		frontendWorkload
		schema *xmlsql.Schema
		doc    *xmlsql.Document
	}
	wls := []wl{
		{
			frontendWorkload: frontendWorkload{name: "xmark", query: workloads.QueryQ1},
			schema:           workloads.XMark(),
			doc: workloads.GenerateXMark(workloads.XMarkConfig{
				ItemsPerContinent: 50, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
			}),
		},
		{
			frontendWorkload: frontendWorkload{name: "s3", query: workloads.QueryQ4},
			schema:           workloads.S3(),
			doc:              workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 5, Seed: 1}),
		},
	}
	// Burst 1: a generous burst would admit thundering herds whose members
	// then queue on each other, inflating the accepted-query tail the
	// overload gate is watching for queueing collapse.
	tight := server.Limits{
		RatePerSec:  cfg.OverRate,
		Burst:       1,
		MaxInFlight: cfg.OverInFlight,
	}
	for _, w := range wls {
		store := xmlsql.NewStore()
		if _, err := xmlsql.Shred(w.schema, store, w.doc); err != nil {
			return nil, fmt.Errorf("frontend %s: shred: %w", w.name, err)
		}
		// Generous and tight tenants share one store: same data, different
		// admission, so the overload run isolates the admission pipeline.
		for _, tc := range []server.TenantConfig{
			{Name: w.name, Schema: w.schema, Backend: xmlsql.NewMemBackendOn(store)},
			{Name: w.name + "-tight", Schema: w.schema, Backend: xmlsql.NewMemBackendOn(store), Limits: &tight},
		} {
			if _, err := srv.AddTenant(tc); err != nil {
				return nil, err
			}
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()

	var out []*FrontendComparison
	for _, w := range wls {
		for _, proto := range []string{"http", "line"} {
			addr := srv.HTTPAddr()
			if proto == "line" {
				addr = srv.LineAddr()
			}
			under, err := Drive(DriveConfig{
				Protocol: proto, Addr: addr, Tenant: w.name, Query: w.query,
				Clients: cfg.UnderClients, Duration: cfg.Duration,
			})
			if err != nil {
				return nil, fmt.Errorf("frontend %s/%s under: %w", w.name, proto, err)
			}
			under.Workload, under.Mode, under.InFlightLimit = w.name, "under", 0
			out = append(out, under)

			// The overload window is doubled: accepted throughput is
			// rate-limited, so a window sized for the unlimited under run
			// would leave the tail percentiles resting on single samples.
			over, err := Drive(DriveConfig{
				Protocol: proto, Addr: addr, Tenant: w.name + "-tight", Query: w.query,
				Clients: cfg.OverClients, Duration: 2 * cfg.Duration,
			})
			if err != nil {
				return nil, fmt.Errorf("frontend %s/%s over: %w", w.name, proto, err)
			}
			over.Workload, over.Mode, over.InFlightLimit = w.name, "over", cfg.OverInFlight
			over.RateLimit = cfg.OverRate
			out = append(out, over)
		}
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// execP99NoiseFloorNs is the absolute slack the overload-p99 comparison
// allows on top of the ratio: scheduler preemption and GC put a fixed
// sub-millisecond jitter on any single query, so when the under-capacity
// exec p99 is itself tens of microseconds, a pure ratio gate would measure
// the noise floor, not queueing.
const execP99NoiseFloorNs = 500e3

// FrontendGate enforces the serving-front-end acceptance properties:
// under-capacity runs must not shed (and must complete work without
// errors); overload runs must shed (no unbounded queueing) with the
// accepted queries' server-side exec p99 within maxP99x of the matching
// under-capacity exec p99 (plus a fixed scheduling-noise allowance).
func FrontendGate(cmps []*FrontendComparison, maxP99x float64) []error {
	var errs []error
	under := make(map[string]*FrontendComparison)
	for _, c := range cmps {
		if c.Mode == "under" {
			under[c.Workload+"/"+c.Protocol] = c
		}
	}
	for _, c := range cmps {
		key := c.Workload + "/" + c.Protocol
		switch c.Mode {
		case "under":
			if c.Shed > 0 {
				errs = append(errs, fmt.Errorf("%s: shed %d queries at under-capacity load (shed rate %.3f)", key, c.Shed, c.ShedRate))
			}
			if c.Completed == 0 {
				errs = append(errs, fmt.Errorf("%s: under-capacity run completed no queries", key))
			}
			if c.Errors > 0 {
				errs = append(errs, fmt.Errorf("%s: under-capacity run hit %d errors", key, c.Errors))
			}
		case "over":
			if c.Shed == 0 {
				errs = append(errs, fmt.Errorf("%s: overload run shed nothing — admission control did not engage", key))
			}
			u := under[key]
			if u == nil || u.ExecP99Ns <= 0 {
				continue
			}
			// Compare server-side execution p99: round-trip times in-process
			// also measure the driver's own scheduling, not the server.
			if maxP99x > 0 && c.ExecP99Ns > maxP99x*u.ExecP99Ns+execP99NoiseFloorNs {
				errs = append(errs, fmt.Errorf("%s: overload accepted-query exec p99 %.0fns exceeds %.1fx under-capacity exec p99 %.0fns — queueing collapse",
					key, c.ExecP99Ns, maxP99x, u.ExecP99Ns))
			}
		}
	}
	return errs
}

// FormatFrontend renders the closed-loop serving table.
func FormatFrontend(cmps []*FrontendComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving front end: closed-loop clients against live HTTP/line listeners (GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-8s %-5s %-6s %4s %5s %9s %7s %9s %9s %9s %9s %9s\n",
		"workload", "proto", "mode", "cli", "rate", "qps", "shed%", "p50", "p99", "p999", "mean", "xp99")
	b.WriteString(strings.Repeat("-", 108))
	b.WriteString("\n")
	for _, c := range cmps {
		rate := "-"
		if c.RateLimit > 0 {
			rate = fmt.Sprintf("%.0f", c.RateLimit)
		}
		fmt.Fprintf(&b, "%-8s %-5s %-6s %4d %5s %9.0f %6.1f%% %9s %9s %9s %9s %9s\n",
			c.Workload, c.Protocol, c.Mode, c.Clients, rate,
			c.QPS, 100*c.ShedRate,
			fmtNs(c.P50Ns), fmtNs(c.P99Ns), fmtNs(c.P999Ns), fmtNs(c.MeanNs), fmtNs(c.ExecP99Ns))
	}
	b.WriteString("(p50/p99/p999/mean: client round-trip; xp99: server-side execution p99 — the overload gate's metric)\n")
	return b.String()
}
