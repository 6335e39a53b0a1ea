//go:build !race

// Allocation budgets depend on the allocator seeing only the code under test,
// which the race detector's instrumentation breaks. CI's "Server suite (race)"
// step runs this whole package under -race, so that step skips this file and
// plain `go test` runs it.

package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"xmlsql"
	"xmlsql/internal/server"
	"xmlsql/internal/workloads"
)

// queryAllocs serves //Item/name from an xmark tenant of itemsPerContinent
// items under each of the six continents and returns the handler's
// allocations per request.
func queryAllocs(t *testing.T, itemsPerContinent int) float64 {
	t.Helper()
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: itemsPerContinent, CategoriesPerItem: 1, NumCategories: 5, Seed: 7,
	})
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	if _, err := srv.AddTenant(server.TenantConfig{Name: "auctions", Schema: s, Backend: xmlsql.NewMemBackendOn(store)}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	target := "/query?tenant=auctions&q=" + url.QueryEscape("//Item/name")
	body := bytes.NewBuffer(make([]byte, 0, 1<<20))
	serve := func() {
		rec := httptest.NewRecorder()
		body.Reset()
		rec.Body = body
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", target, rec.Code, body)
		}
	}
	serve()
	if want := 6 * itemsPerContinent; !bytes.Contains(body.Bytes(), []byte(`"row_count": `+strconv.Itoa(want))) {
		t.Fatalf("answer does not report %d rows", want)
	}
	return testing.AllocsPerRun(20, serve)
}

// The /query handler's allocations do not grow with the result: a response
// streams through one pooled chunk, whatever its row count.
func TestQueryHandlerAllocsIndependentOfRows(t *testing.T) {
	small := queryAllocs(t, 167)  // 1002 rows
	large := queryAllocs(t, 1334) // 8004 rows
	if d := large - small; d < -2 || d > 2 {
		t.Errorf("GET /query: %.0f allocs for 1k rows, %.0f for 8k", small, large)
	}
}
