package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"xmlsql"
	"xmlsql/internal/server"
	"xmlsql/internal/workloads"
)

// newXMarkTenant shreds a tiny xmark instance and returns its pieces.
func newXMarkTenant(t *testing.T, name string, limits *server.Limits) (server.TenantConfig, *xmlsql.Store) {
	t.Helper()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 5, Seed: 7,
	})
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	return server.TenantConfig{
		Name:    name,
		Schema:  s,
		Backend: xmlsql.NewMemBackendOn(store),
		Limits:  limits,
	}, store
}

// newTestServer builds a server with one "auctions" xmark tenant and mounts
// its handler on an httptest server.
func newTestServer(t *testing.T, limits *server.Limits) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	cfg, _ := newXMarkTenant(t, "auctions", limits)
	if _, err := srv.AddTenant(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("parsing %s response: %v\n%s", url, err, body)
		}
	}
	return resp
}

func TestHTTPQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var got struct {
		Tenant    string   `json:"tenant"`
		Cols      []string `json:"cols"`
		Rows      [][]any  `json:"rows"`
		RowCount  int      `json:"row_count"`
		ElapsedNs int64    `json:"elapsed_ns"`
	}
	resp := getJSON(t, ts.URL+"/query?tenant=auctions&q="+url.QueryEscape("//Item/InCategory/Category"), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query: %d", resp.StatusCode)
	}
	// 4 items x 6 continents x 2 categories each.
	if got.RowCount != 48 || len(got.Rows) != 48 {
		t.Errorf("row_count = %d, want 48", got.RowCount)
	}
	if got.ElapsedNs <= 0 {
		t.Error("elapsed_ns not reported")
	}
	if got.Tenant != "auctions" {
		t.Errorf("tenant = %q", got.Tenant)
	}

	// POST JSON body is the other accepted request form.
	body := strings.NewReader(`{"tenant":"auctions","query":"//Item/name"}`)
	presp, err := http.Post(ts.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %d", presp.StatusCode)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cases := []struct {
		path     string
		wantCode int
		wantErr  string
	}{
		{"/query?tenant=nosuch&q=//Item", http.StatusNotFound, "unknown_tenant"},
		{"/query?tenant=auctions&q=" + url.QueryEscape("//Item[InCategory"), http.StatusBadRequest, "bad_query"},
		{"/query?tenant=auctions", http.StatusBadRequest, "bad_request"},
		{"/query?q=//Item", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		var got struct {
			Error struct {
				Code   string `json:"code"`
				Tenant string `json:"tenant"`
			} `json:"error"`
		}
		resp := getJSON(t, ts.URL+tc.path, &got)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantCode)
		}
		if got.Error.Code != tc.wantErr {
			t.Errorf("%s: error code %q, want %q", tc.path, got.Error.Code, tc.wantErr)
		}
	}
}

func TestHTTPExplain(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var got struct {
		SQL              string `json:"sql"`
		StatsFingerprint string `json:"stats_fingerprint"`
		UsePruned        bool   `json:"use_pruned"`
	}
	resp := getJSON(t, ts.URL+"/explain?tenant=auctions&q="+url.QueryEscape("//Item/InCategory/Category"), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain: %d", resp.StatusCode)
	}
	if !strings.Contains(strings.ToLower(got.SQL), "select") {
		t.Errorf("explain sql = %q", got.SQL)
	}
	if got.StatsFingerprint == "" {
		t.Error("explain missing stats_fingerprint")
	}
	if !got.UsePruned {
		t.Error("Q1 should choose the pruned plan")
	}
}

func TestHTTPAudit(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// GET is refused: an audit scans the store, so it must be explicit.
	resp, err := http.Get(ts.URL + "/audit?tenant=auctions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /audit: %d, want 405", resp.StatusCode)
	}

	presp, err := http.Post(ts.URL+"/audit?tenant=auctions", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var got struct {
		Clean bool   `json:"clean"`
		Trust string `json:"trust"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Clean || got.Trust != "verified" {
		t.Errorf("audit of a clean instance: clean=%v trust=%q", got.Clean, got.Trust)
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var health struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Tenants != 1 {
		t.Errorf("healthz: %d %+v", resp.StatusCode, health)
	}

	// Two identical queries: the second must hit the tenant's plan cache,
	// and /stats must expose the partitioned counters.
	for i := 0; i < 2; i++ {
		r := getJSON(t, ts.URL+"/query?tenant=auctions&q="+url.QueryEscape("//Item/name"), nil)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d", i, r.StatusCode)
		}
	}
	var stats server.ServerStats
	if r := getJSON(t, ts.URL+"/stats", &stats); r.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", r.StatusCode)
	}
	ten, ok := stats.Tenants["auctions"]
	if !ok {
		t.Fatalf("stats missing tenant: %+v", stats.Tenants)
	}
	if ten.Queries != 2 {
		t.Errorf("tenant queries = %d, want 2", ten.Queries)
	}
	if ten.PlanCache.Misses < 1 || ten.PlanCache.Hits < 1 {
		t.Errorf("plan cache counters not partitioned per tenant: %+v", ten.PlanCache)
	}
	if ten.Trust == "" {
		t.Error("tenant trust state missing from stats")
	}
	if ten.MeanExecNs <= 0 {
		t.Error("mean_exec_ns not recorded")
	}
}

func TestHTTPRateShed(t *testing.T) {
	_, ts := newTestServer(t, &server.Limits{RatePerSec: 1, Burst: 1})

	q := ts.URL + "/query?tenant=auctions&q=" + url.QueryEscape("//Item/name")
	if r := getJSON(t, q, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d", r.StatusCode)
	}
	var got struct {
		Error struct {
			Code         string `json:"code"`
			RetryAfterMs int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	resp := getJSON(t, q, &got)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate query: %d, want 429", resp.StatusCode)
	}
	if got.Error.Code != "shed_rate" {
		t.Errorf("error code = %q, want shed_rate", got.Error.Code)
	}
	if got.Error.RetryAfterMs <= 0 {
		t.Error("shed response missing retry_after_ms")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
}

func TestAddTenantValidation(t *testing.T) {
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	cfg, _ := newXMarkTenant(t, "a", nil)
	if _, err := srv.AddTenant(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant(cfg); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	if _, err := srv.AddTenant(server.TenantConfig{Name: "", Schema: cfg.Schema}); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, err := srv.AddTenant(server.TenantConfig{Name: "b"}); err == nil {
		t.Error("tenant without schema accepted")
	}
	if srv.Tenant("nosuch") != nil {
		t.Error("unknown tenant lookup should be nil")
	}
}

func TestConnectionLimit(t *testing.T) {
	srv := server.New(server.Config{
		Addr:     "127.0.0.1:0",
		MaxConns: 1,
		Logf:     func(string, ...any) {},
	})
	cfg, _ := newXMarkTenant(t, "auctions", nil)
	if _, err := srv.AddTenant(cfg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hold the single slot with an idle keep-alive connection, then connect
	// again: the second connection gets the canned typed 503 without its
	// request ever being read.
	hold, err := net.Dial("tcp", srv.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	// Give the accept loop a moment to claim the slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.Dial("tcp", srv.HTTPAddr())
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		raw, _ := io.ReadAll(c)
		c.Close()
		if strings.Contains(string(raw), "503") && strings.Contains(string(raw), "shed_connections") {
			if !strings.Contains(string(raw), "Retry-After:") {
				t.Errorf("connection-shed response missing Retry-After:\n%s", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("over-limit connection not shed; last response:\n%s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var stats server.ServerStats
	stats = srv.Stats()
	if stats.ShedConns == 0 {
		t.Error("shed_connections counter not incremented")
	}
	if stats.MaxConns != 1 {
		t.Errorf("max_conns = %d, want 1", stats.MaxConns)
	}
	_ = fmt.Sprint(stats)
}
