package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"xmlsql"
	"xmlsql/internal/relational"
	"xmlsql/internal/server"
)

// postJSON posts a JSON body and decodes the JSON answer.
func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("parsing %s response: %v", url, err)
		}
	}
	return resp
}

type updateResp struct {
	Tenant      string   `json:"tenant"`
	Mutations   int      `json:"mutations"`
	Stmts       int      `json:"stmts"`
	Touched     []string `json:"touched_relations"`
	Written     int      `json:"written_tuples"`
	AuditClean  bool     `json:"audit_clean"`
	Trust       string   `json:"trust"`
	ElapsedNs   int64    `json:"elapsed_ns"`
	Preexisting bool     `json:"preexisting_violations"`
}

// TestHTTPUpdate applies a batch over POST /update and checks the new data
// serves and the tenant counters move.
func TestHTTPUpdate(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var before struct {
		RowCount int `json:"row_count"`
	}
	getJSON(t, ts.URL+"/query?tenant=auctions&q=//Item/InCategory/Category", &before)

	var ur updateResp
	resp := postJSON(t, ts.URL+"/update", map[string]any{
		"tenant": "auctions",
		"mutations": []map[string]string{{
			"op":   "insert",
			"path": "/Site/Regions/Africa/Item",
			"xml":  "<InCategory><Category>networked</Category></InCategory>",
		}},
	}, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /update = %d", resp.StatusCode)
	}
	if len(ur.Touched) != 1 || ur.Touched[0] != "InCat" || !ur.AuditClean || ur.Written != 4 {
		t.Fatalf("update response %+v", ur)
	}

	var after struct {
		RowCount int `json:"row_count"`
	}
	getJSON(t, ts.URL+"/query?tenant=auctions&q=//Item/InCategory/Category", &after)
	if after.RowCount != before.RowCount+4 {
		t.Fatalf("rows %d -> %d, want +4", before.RowCount, after.RowCount)
	}

	var stats struct {
		Tenants map[string]struct {
			Updates       int64 `json:"updates"`
			UpdateRejects int64 `json:"update_rejects"`
		} `json:"tenants"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if got := stats.Tenants["auctions"]; got.Updates != 1 || got.UpdateRejects != 0 {
		t.Fatalf("tenant counters %+v, want 1 applied / 0 rejected", got)
	}
}

// TestHTTPUpdateRejection checks a rejected batch's typed HTTP shape and that
// it changed nothing.
func TestHTTPUpdateRejection(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var errBody struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	resp := postJSON(t, ts.URL+"/update", map[string]any{
		"tenant": "auctions",
		"mutations": []map[string]string{{
			"op": "insert", "path": "//Item", "xml": "<Bogus/>",
		}},
	}, &errBody)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rejected update = %d, want 422", resp.StatusCode)
	}
	if errBody.Error.Code != "update_conform" {
		t.Fatalf("error code = %q, want update_conform", errBody.Error.Code)
	}

	// Unknown op is a plain bad request, before admission.
	resp = postJSON(t, ts.URL+"/update", map[string]any{
		"tenant":    "auctions",
		"mutations": []map[string]string{{"op": "upsert", "path": "//Item"}},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op = %d, want 400", resp.StatusCode)
	}
}

// TestLineProtoUpdate drives the U verb end to end over a real TCP listener.
func TestLineProtoUpdate(t *testing.T) {
	srv := server.New(server.Config{LineAddr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	cfg, _ := newXMarkTenant(t, "auctions", nil)
	if _, err := srv.AddTenant(cfg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c, err := net.DialTimeout("tcp", srv.LineAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewScanner(c)

	muts := `[{"op":"insert","path":"/Site/Regions/Asia/Item","xml":"<InCategory><Category>line-proto</Category></InCategory>"}]`
	fmt.Fprintf(c, "U auctions %s\n", muts)
	if !r.Scan() {
		t.Fatal("no response to U")
	}
	fields := strings.Fields(r.Text())
	if len(fields) != 5 || fields[0] != "OK" {
		t.Fatalf("U response = %q, want OK <stmts> <written> <deleted> <elapsed>", r.Text())
	}
	if fields[2] != "4" { // 4 Asia items gained one InCat tuple each
		t.Fatalf("written = %s, want 4", fields[2])
	}

	// The write is visible on the same connection.
	fmt.Fprintln(c, "Q auctions //Item/InCategory/Category")
	if !r.Scan() {
		t.Fatal("no response to Q")
	}
	if !strings.HasPrefix(r.Text(), "OK ") {
		t.Fatalf("Q response = %q", r.Text())
	}

	// A rejected batch answers a typed ERR line.
	fmt.Fprintln(c, `U auctions [{"op":"insert","path":"//Item","xml":"<Bogus/>"}]`)
	if !r.Scan() {
		t.Fatal("no response to invalid U")
	}
	if !strings.HasPrefix(r.Text(), "ERR update_conform") {
		t.Fatalf("invalid U response = %q, want ERR update_conform ...", r.Text())
	}
}

// TestUpdateDoesNotDisturbOtherTenants is the multi-tenant face of writes
// leaving cached plans alone: a write to one tenant is served by that tenant
// without re-translating, and is invisible to the other tenant.
func TestUpdateDoesNotDisturbOtherTenants(t *testing.T) {
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	cfgA, _ := newXMarkTenant(t, "a", nil)
	cfgB, _ := newXMarkTenant(t, "b", nil)
	ta, err := srv.AddTenant(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := srv.AddTenant(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	const q = "//Item/InCategory/Category"

	// Warm both tenants' caches.
	for _, tn := range []*server.Tenant{ta, tb} {
		if _, err := tn.Planner().Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Planner().Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	missesB := tb.Planner().Stats().Misses

	// Update tenant a only.
	if _, err := ta.Planner().Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op:   xmlsql.UpdateInsert,
		Path: "/Site/Regions/Africa/Item",
		XML:  "<InCategory><Category>tenant-a-only</Category></InCategory>",
	}}}); err != nil {
		t.Fatal(err)
	}

	// Tenant b's hot entry still hits and its answer is unchanged; tenant a
	// serves the written element from the plan it already had.
	rowsB, err := tb.Planner().Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Planner().Stats().Misses; got != missesB {
		t.Fatalf("tenant b re-planned after tenant a's write (%d -> %d misses)", missesB, got)
	}
	missesA := ta.Planner().Stats().Misses
	rowsA, err := ta.Planner().Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ta.Planner().Stats().Misses; got != missesA {
		t.Fatalf("tenant a re-translated after its own write (%d -> %d misses)", missesA, got)
	}
	has := func(res *xmlsql.Result) bool {
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Identical(relational.String("tenant-a-only")) {
					return true
				}
			}
		}
		return false
	}
	if !has(rowsA) {
		t.Fatal("tenant a's answer does not contain the element it wrote")
	}
	if has(rowsB) {
		t.Fatal("tenant b serves an element written to tenant a")
	}
}
