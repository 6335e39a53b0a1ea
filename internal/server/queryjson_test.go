package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
)

// referenceResponse, referenceRows and referenceJSON are the /query encoding
// that writeQueryJSON replaced: the result copied into boxed values and
// encoded by reflection. writeQueryJSON must reproduce it byte for byte.
type referenceResponse struct {
	Tenant    string   `json:"tenant"`
	Query     string   `json:"query"`
	Cols      []string `json:"cols"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedNs int64    `json:"elapsed_ns"`
}

func referenceRows(res *engine.Result) [][]any {
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case relational.KindInt:
				vals[j] = v.AsInt()
			case relational.KindString:
				vals[j] = v.AsString()
			}
		}
		rows[i] = vals
	}
	return rows
}

func referenceJSON(tenant, query string, res *engine.Result, elapsed time.Duration) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(referenceResponse{
		Tenant:    tenant,
		Query:     query,
		Cols:      res.Cols,
		Rows:      referenceRows(res),
		RowCount:  res.Len(),
		ElapsedNs: elapsed.Nanoseconds(),
	})
	return b.Bytes()
}

// chunkRecorder records every Write it is handed.
type chunkRecorder struct {
	body   bytes.Buffer
	chunks []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.chunks = append(c.chunks, len(p))
	return c.body.Write(p)
}

func checkIdentity(t *testing.T, name, tenant, query string, res *engine.Result, elapsed time.Duration) *chunkRecorder {
	t.Helper()
	var got chunkRecorder
	if err := writeQueryJSON(&got, tenant, query, res, elapsed); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := referenceJSON(tenant, query, res, elapsed)
	if !bytes.Equal(got.body.Bytes(), want) {
		i := 0
		for i < len(want) && i < got.body.Len() && want[i] == got.body.Bytes()[i] {
			i++
		}
		t.Fatalf("%s: body differs from encoding/json at byte %d of %d\n got: %q\nwant: %q",
			name, i, len(want), clip(got.body.Bytes(), i), clip(want, i))
	}
	return &got
}

// clip is the neighbourhood of byte i.
func clip(b []byte, i int) []byte {
	return b[max(i-40, 0):min(i+40, len(b))]
}

// strs and ints build rows of one kind.
func strs(ss ...string) relational.Row {
	row := make(relational.Row, len(ss))
	for i, s := range ss {
		row[i] = relational.String(s)
	}
	return row
}

func ints(ns ...int64) relational.Row {
	row := make(relational.Row, len(ns))
	for i, n := range ns {
		row[i] = relational.Int(n)
	}
	return row
}

func TestQueryJSONMatchesEncodingJSON(t *testing.T) {
	var every [256]byte
	var bytesEach []string
	for i := range every {
		every[i] = byte(i)
		bytesEach = append(bytesEach, string(every[i:i+1]))
	}
	hostile := []string{
		`<>&"\`, "\u2028", "\u2029", "a\u2028b\u2029c", "\xff", "a\xc3", "\xed\xa0\x80",
		"\x7f", "tab\tnl\ncr\r", "é中\U0001f600", "", " ", "plain ascii 0-9 ~!@#$%^*()_+{}|:?",
	}
	cases := []struct {
		name          string
		tenant, query string
		res           engine.Result
		elapsed       time.Duration
	}{
		{name: "nil cols, nil rows", tenant: "a", query: "//x"},
		{name: "empty cols, empty rows", tenant: "a", query: "//x",
			res: engine.Result{Cols: []string{}, Rows: []relational.Row{}}},
		{name: "zero-width rows", tenant: "a", query: "//x",
			res: engine.Result{Cols: []string{}, Rows: []relational.Row{{}, nil, {}}}},
		{name: "nulls and int extremes", tenant: "a", query: "//x", elapsed: math.MaxInt64,
			res: engine.Result{Cols: []string{"n", "i", "s"}, Rows: []relational.Row{
				{relational.Null, relational.Int(math.MinInt64), relational.String("x")},
				{relational.Int(math.MaxInt64), relational.Null, relational.Null},
				{relational.Int(0), relational.Int(-1), relational.Null},
			}}},
		{name: "negative elapsed", tenant: "a", query: "//x", elapsed: -1,
			res: engine.Result{Cols: []string{"c"}, Rows: []relational.Row{ints(7)}}},
		{name: "every byte in one string", tenant: "a", query: "//x",
			res: engine.Result{Cols: []string{"s"}, Rows: []relational.Row{strs(string(every[:]))}}},
		{name: "every byte on its own", tenant: "a", query: "//x",
			res: engine.Result{Cols: bytesEach, Rows: []relational.Row{strs(bytesEach...)}}},
		{name: "hostile strings", tenant: "a", query: "//x",
			res: engine.Result{Cols: hostile, Rows: []relational.Row{strs(hostile...), strs(hostile...)}}},
		{name: "escaped tenant and query", tenant: "t\"<&> \xff", query: "//Item[name=\"<b>\"]\n\\",
			res: engine.Result{Cols: []string{"name"}, Rows: []relational.Row{strs("x")}}},
		{name: "value longer than a chunk", tenant: "a", query: strings.Repeat("q", queryChunk+5),
			res: engine.Result{Cols: []string{"s"}, Rows: []relational.Row{
				strs(strings.Repeat("v", 2*queryChunk)), strs(strings.Repeat("<", queryChunk)), ints(1),
			}}},
	}
	for _, tc := range cases {
		checkIdentity(t, tc.name, tc.tenant, tc.query, &tc.res, tc.elapsed)
	}
}

// bigResult is rows rows of (id, name, NULL-or-code).
func bigResult(rows int) *engine.Result {
	res := &engine.Result{Cols: []string{"id", "name", "code"}}
	for i := 0; i < rows; i++ {
		code := relational.Null
		if i%3 == 0 {
			code = relational.Int(int64(i % 7))
		}
		res.Rows = append(res.Rows, relational.Row{relational.Int(int64(i)), relational.String("item-" + strings.Repeat("x", i%11)), code})
	}
	return res
}

// A result of thousands of rows streams in full chunks, none larger than the
// pooled buffer, and still matches encoding/json.
func TestQueryJSONStreamsInChunks(t *testing.T) {
	got := checkIdentity(t, "6000 rows", "auctions", "//Item/name", bigResult(6000), 123456*time.Nanosecond)
	if len(got.chunks) < 4 {
		t.Fatalf("%d-byte body arrived in %d writes, want one per %d-byte chunk", got.body.Len(), len(got.chunks), queryChunk)
	}
	for i, n := range got.chunks {
		if n > queryChunk {
			t.Errorf("write %d is %d bytes, more than the %d-byte chunk", i, n, queryChunk)
		}
		if i < len(got.chunks)-1 && n < queryChunk-64 {
			t.Errorf("write %d is %d bytes: flushed before the chunk was full", i, n)
		}
	}
}

// failingWriter accepts ok writes and fails every later one.
type failingWriter struct {
	ok, calls int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.ok {
		return 0, errors.New("connection reset by peer")
	}
	return len(p), nil
}

// Once the client is gone the appender stops: it makes no write after the
// failed one and does not format the rest of the result.
func TestQueryJSONStopsOnDeadClient(t *testing.T) {
	// The second result's one row is three chunks wide, so it flushes twice
	// more after the failed write unless the flushes stop too.
	wide := strings.Repeat("w", queryChunk+1)
	for _, res := range []*engine.Result{
		bigResult(20000),
		{Cols: []string{"a", "b", "c"}, Rows: []relational.Row{strs(wide, wide, wide)}},
	} {
		w := &failingWriter{ok: 1}
		if err := writeQueryJSON(w, "auctions", "//Item/name", res, time.Millisecond); err == nil {
			t.Fatal("a failed write was not reported")
		}
		if w.calls != 2 {
			t.Fatalf("%d Write calls, want 2: the first chunk and the one that failed", w.calls)
		}
	}
	// Every string here goes through json.Marshal, which allocates, so the
	// allocations count the rows formatted: two chunks' worth, not 20000.
	escaped := &engine.Result{Cols: []string{"s"}, Rows: repeatRow(strs("<escaped>"), 20000)}
	allocs := testing.AllocsPerRun(1, func() {
		writeQueryJSON(&failingWriter{ok: 1}, "auctions", "//Item/name", escaped, 0)
	})
	if allocs > 10000 {
		t.Errorf("%.0f allocations after the client was gone: the rest of the result was formatted", allocs)
	}
}

func FuzzQueryJSON(f *testing.F) {
	f.Add("auctions", "//Item/name", "plain", int64(0))
	f.Add("t\"<&>", "//a[b=\"<x>\"]\n", `<>&"\`, int64(math.MinInt64))
	f.Add("a", "//x", "\u2028\u2029", int64(math.MaxInt64))
	f.Add("\xff", "\xc3", "a\xc3\x00\x1f\x7f\x80", int64(-1))
	f.Add("", "", "", int64(5000))
	f.Fuzz(func(t *testing.T, tenant, query, s string, n int64) {
		res := &engine.Result{Cols: []string{s, "n"}, Rows: []relational.Row{
			{relational.String(s), relational.Int(n)},
			{relational.Null, relational.String(s + s)},
			{},
		}}
		checkIdentity(t, "fuzz", tenant, query, res, time.Duration(n))
		// n also sizes a result, so some inputs span several chunks.
		rows := int(uint64(n) % 3000)
		checkIdentity(t, "fuzz rows", tenant, query, &engine.Result{Cols: []string{"s"}, Rows: repeatRow(strs(s), rows)}, 0)
	})
}

func repeatRow(row relational.Row, n int) []relational.Row {
	rows := make([]relational.Row, n)
	for i := range rows {
		rows[i] = row
	}
	return rows
}
