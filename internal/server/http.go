package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xmlsql"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/relational"
	"xmlsql/internal/resilient"
)

// queryRequest is the POST /query and /explain body; GET requests pass the
// same fields as ?tenant= and ?q= parameters.
type queryRequest struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query"`
}

// errorResponse is every error's JSON shape; shed responses also carry the
// HTTP Retry-After header.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Tenant       string `json:"tenant,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// healthResponse is GET /healthz. Recovery maps each tenant to its
// durability lifecycle state (recovering | recovered | replay_truncated |
// replay_violated, or volatile for tenants without a write-ahead log), so a
// load balancer can tell a booted-but-unverified instance from a healthy one.
type healthResponse struct {
	Status   string                   `json:"status"`
	Tenants  int                      `json:"tenants"`
	UptimeMs int64                    `json:"uptime_ms"`
	Recovery map[string]RecoveryState `json:"recovery,omitempty"`
}

// ServerStats is GET /stats: process-wide connection/drain counters plus the
// per-tenant partitioned counters.
type ServerStats struct {
	UptimeMs     int64                  `json:"uptime_ms"`
	Draining     bool                   `json:"draining"`
	ActiveConns  int64                  `json:"active_conns"`
	MaxConns     int                    `json:"max_conns"`
	ShedConns    int64                  `json:"shed_connections"`
	ShedDraining int64                  `json:"shed_draining"`
	Tenants      map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the whole server (also served on /stats).
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		UptimeMs:     time.Since(s.start).Milliseconds(),
		Draining:     s.draining.Load(),
		ActiveConns:  s.conns.active.Load(),
		MaxConns:     cap(s.conns.sem),
		ShedConns:    s.conns.rejected.Load(),
		ShedDraining: s.shedDraining.Load(),
		Tenants:      make(map[string]TenantStats),
	}
	for _, name := range s.tenantNames() {
		if t := s.Tenant(name); t != nil {
			st.Tenants[name] = t.Stats()
		}
	}
	return st
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/audit", s.handleAudit)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// parseQueryRequest accepts both GET parameters and a POST JSON body.
func parseQueryRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Tenant = r.URL.Query().Get("tenant")
		req.Query = r.URL.Query().Get("q")
		if req.Query == "" {
			req.Query = r.URL.Query().Get("query")
		}
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return req, fmt.Errorf("reading body: %w", err)
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return req, fmt.Errorf("parsing body: %w", err)
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if req.Tenant == "" {
		return req, fmt.Errorf("missing tenant")
	}
	if req.Query == "" {
		return req, fmt.Errorf("missing query")
	}
	return req, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", err.Error(), 0)
		return
	}
	t := s.Tenant(req.Tenant)
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown_tenant", req.Tenant, fmt.Sprintf("tenant %q not registered", req.Tenant), 0)
		return
	}
	// Reject malformed path expressions before they cost an admission slot.
	if _, err := pathexpr.Parse(req.Query); err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", req.Tenant, err.Error(), 0)
		return
	}
	res, elapsed, err := s.execute(r.Context(), t, req.Query)
	if err != nil {
		s.writeExecError(w, req.Tenant, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; there is no one left to tell.
	_ = writeQueryJSON(w, req.Tenant, req.Query, res, elapsed)
}

// updateMutationWire is one mutation on the wire: the operation spelled out
// ("insert" / "delete" / "replace") instead of the internal enum.
type updateMutationWire struct {
	Op   string `json:"op"`
	Path string `json:"path"`
	XML  string `json:"xml,omitempty"`
}

// updateRequest is the POST /update body.
type updateRequest struct {
	Tenant    string               `json:"tenant"`
	Mutations []updateMutationWire `json:"mutations"`
}

// updateResponse is an applied batch's JSON answer.
type updateResponse struct {
	Tenant    string   `json:"tenant"`
	Mutations int      `json:"mutations"`
	Stmts     int      `json:"stmts"`
	Touched   []string `json:"touched_relations"`
	Written   int      `json:"written_tuples"`
	Deleted   int      `json:"deleted_tuples"`
	// AuditClean is the post-apply incremental audit's verdict over the
	// batch's neighborhood; Preexisting flags violations that predate the
	// batch (the batch itself was valid and applied).
	AuditClean  bool   `json:"audit_clean"`
	Preexisting bool   `json:"preexisting_violations,omitempty"`
	Trust       string `json:"trust"`
	ElapsedNs   int64  `json:"elapsed_ns"`
}

// decodeBatch converts wire mutations to an UpdateBatch.
func decodeBatch(muts []updateMutationWire) (xmlsql.UpdateBatch, error) {
	var b xmlsql.UpdateBatch
	if len(muts) == 0 {
		return b, fmt.Errorf("empty mutation list")
	}
	for i, m := range muts {
		var op xmlsql.UpdateOp
		switch m.Op {
		case "insert":
			op = xmlsql.UpdateInsert
		case "delete":
			op = xmlsql.UpdateDelete
		case "replace":
			op = xmlsql.UpdateReplace
		default:
			return b, fmt.Errorf("mutation %d: unknown op %q (want insert, delete, or replace)", i, m.Op)
		}
		if m.Path == "" {
			return b, fmt.Errorf("mutation %d: missing path", i)
		}
		b.Muts = append(b.Muts, xmlsql.UpdateMutation{Op: op, Path: m.Path, XML: m.XML})
	}
	return b, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "", "POST required", 0)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", fmt.Sprintf("reading body: %v", err), 0)
		return
	}
	var req updateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", fmt.Sprintf("parsing body: %v", err), 0)
		return
	}
	if req.Tenant == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "", "missing tenant", 0)
		return
	}
	t := s.Tenant(req.Tenant)
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown_tenant", req.Tenant, fmt.Sprintf("tenant %q not registered", req.Tenant), 0)
		return
	}
	batch, err := decodeBatch(req.Mutations)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", req.Tenant, err.Error(), 0)
		return
	}
	res, elapsed, err := s.executeUpdate(r.Context(), t, batch)
	if err != nil {
		s.writeExecError(w, req.Tenant, err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Tenant:      req.Tenant,
		Mutations:   len(batch.Muts),
		Stmts:       res.Stmts,
		Touched:     res.Touched.Relations(),
		Written:     len(res.Touched.Written),
		Deleted:     len(res.Touched.Deleted),
		AuditClean:  res.Audit.Clean(),
		Preexisting: res.Preexisting != nil,
		Trust:       t.planner.TrustState().String(),
		ElapsedNs:   elapsed.Nanoseconds(),
	})
}

// explainResponse is /explain's JSON: the adaptive planner's cost-based
// decision for the query under the tenant's current statistics.
type explainResponse struct {
	Tenant           string  `json:"tenant"`
	Query            string  `json:"query"`
	StatsFingerprint string  `json:"stats_fingerprint"`
	UsePruned        bool    `json:"use_pruned"`
	Factored         bool    `json:"factored"`
	Reordered        bool    `json:"reordered"`
	EstimatedRows    float64 `json:"estimated_rows"`
	EstimatedCost    float64 `json:"estimated_cost"`
	SQL              string  `json:"sql"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "", err.Error(), 0)
		return
	}
	t := s.Tenant(req.Tenant)
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown_tenant", req.Tenant, fmt.Sprintf("tenant %q not registered", req.Tenant), 0)
		return
	}
	ex, err := t.planner.Explain(r.Context(), req.Query)
	if err != nil {
		s.writeExecError(w, req.Tenant, err)
		return
	}
	resp := explainResponse{
		Tenant:           req.Tenant,
		Query:            req.Query,
		StatsFingerprint: ex.StatsFingerprint,
		SQL:              ex.Plan.Query.SQL(),
	}
	if d := ex.Decision; d != nil {
		resp.UsePruned = d.UsePruned
		resp.Factored = d.Factored
		resp.Reordered = d.Reordered
		if d.ChosenEst != nil {
			resp.EstimatedRows = d.ChosenEst.Rows
			resp.EstimatedCost = d.ChosenEst.Cost
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// auditResponse is POST /audit's JSON: the integrity verdict and the trust
// transition it installed on the tenant's planner.
type auditResponse struct {
	Tenant string                  `json:"tenant"`
	Clean  bool                    `json:"clean"`
	Trust  string                  `json:"trust"`
	Report *xmlsql.IntegrityReport `json:"report"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "", "POST required", 0)
		return
	}
	name := r.URL.Query().Get("tenant")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "", "missing tenant", 0)
		return
	}
	t := s.Tenant(name)
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown_tenant", name, fmt.Sprintf("tenant %q not registered", name), 0)
		return
	}
	rep, err := t.planner.Audit(r.Context())
	if err != nil {
		s.writeExecError(w, name, err)
		return
	}
	writeJSON(w, http.StatusOK, auditResponse{
		Tenant: name,
		Clean:  rep.Clean(),
		Trust:  t.planner.TrustState().String(),
		Report: rep,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	names := s.tenantNames()
	resp := healthResponse{Status: "ok", Tenants: len(names), UptimeMs: time.Since(s.start).Milliseconds()}
	if len(names) > 0 {
		resp.Recovery = make(map[string]RecoveryState, len(names))
		for _, name := range names {
			if t := s.Tenant(name); t != nil {
				resp.Recovery[name] = t.RecoveryState()
			}
		}
	}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeExecError maps an execution-path error to its HTTP shape: typed shed
// errors to 429/503 with Retry-After, timeouts to 504, resource guards and
// rejected update batches to 422, unsupported-update backends to 501,
// breaker-open to 503, everything else to 500.
func (s *Server) writeExecError(w http.ResponseWriter, tenant string, err error) {
	var shed *ShedError
	var ue *xmlsql.UpdateError
	switch {
	case errors.As(err, &ue):
		code := http.StatusUnprocessableEntity
		if ue.Kind == xmlsql.UpdateErrUnsupported {
			code = http.StatusNotImplemented
		}
		writeError(w, code, "update_"+ue.Kind.String(), tenant, err.Error(), 0)
	case errors.As(err, &shed):
		code := http.StatusTooManyRequests
		if shed.Reason == ShedDraining || shed.Reason == ShedConnections {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, string(shed.Reason), tenant, err.Error(), shed.RetryAfter)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "timeout", tenant, err.Error(), 0)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusInternalServerError, "canceled", tenant, err.Error(), 0)
	case errors.Is(err, resilient.ErrBreakerOpen):
		writeError(w, http.StatusServiceUnavailable, "unavailable", tenant, err.Error(), s.cfg.RetryAfter)
	case func() bool { var re *engine.ResourceError; return errors.As(err, &re) }():
		writeError(w, http.StatusUnprocessableEntity, "resource_limit", tenant, err.Error(), 0)
	default:
		writeError(w, http.StatusInternalServerError, "internal", tenant, err.Error(), 0)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, errCode, tenant, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	}
	writeJSON(w, code, errorResponse{Error: errorBody{
		Code:         errCode,
		Message:      msg,
		Tenant:       tenant,
		RetryAfterMs: retryAfter.Milliseconds(),
	}})
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs < 1 {
		secs++
	}
	return strconv.FormatInt(secs, 10)
}

// queryChunk is the size of the pooled buffer a /query body streams through.
const queryChunk = 32 << 10

var queryBufs = sync.Pool{New: func() any { return new([queryChunk]byte) }}

// queryJSON writes its buffer out whenever the next piece would not fit.
type queryJSON struct {
	w   io.Writer
	buf []byte
	err error // the first failed write; nothing is written after it
}

// writeQueryJSON writes the /query answer byte for byte as encoding/json's
// Encoder with SetIndent("", "  ") writes the object {tenant, query, cols,
// rows, row_count, elapsed_ns} whose rows are ints, strings and nulls. It
// stops formatting at the first failed write and returns its error.
func writeQueryJSON(w io.Writer, tenant, query string, res *engine.Result, elapsed time.Duration) error {
	chunk := queryBufs.Get().(*[queryChunk]byte)
	defer queryBufs.Put(chunk)
	e := queryJSON{w: w, buf: chunk[:0]}
	e.put("{\n  \"tenant\": ", relational.String(tenant))
	e.put(",\n  \"query\": ", relational.String(query))
	if res.Cols == nil {
		e.raw(",\n  \"cols\": null")
	} else {
		e.raw(",\n  \"cols\": [")
		for i, c := range res.Cols {
			e.put(pick(i == 0, "\n    ", ",\n    "), relational.String(c))
		}
		e.raw(pick(len(res.Cols) == 0, "]", "\n  ]"))
	}
	e.raw(",\n  \"rows\": [")
	for i, row := range res.Rows {
		if e.err != nil {
			return e.err
		}
		e.raw(pick(i == 0, "\n    [", ",\n    ["))
		for j, v := range row {
			e.put(pick(j == 0, "\n      ", ",\n      "), v)
		}
		e.raw(pick(len(row) == 0, "]", "\n    ]"))
	}
	e.raw(pick(len(res.Rows) == 0, "]", "\n  ]"))
	e.put(",\n  \"row_count\": ", relational.Int(int64(res.Len())))
	e.put(",\n  \"elapsed_ns\": ", relational.Int(elapsed.Nanoseconds()))
	e.raw("\n}\n")
	e.flush()
	return e.err
}

// pick returns a if cond holds and b otherwise.
func pick(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}

func (e *queryJSON) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *queryJSON) raw(s string) {
	if len(e.buf)+len(s) > cap(e.buf) {
		e.flush()
	}
	e.buf = append(e.buf, s...)
}

// put appends prefix and v as JSON: an int, a string, or null for NULL.
func (e *queryJSON) put(prefix string, v relational.Value) {
	s := ""
	if v.Kind() == relational.KindString {
		s = v.AsString()
	}
	if len(e.buf)+len(prefix)+len(s)+20 > cap(e.buf) { // 20: an int64 or a string's quotes
		e.flush()
	}
	e.buf = append(e.buf, prefix...)
	switch v.Kind() {
	case relational.KindInt:
		e.buf = strconv.AppendInt(e.buf, v.AsInt(), 10)
	case relational.KindString:
		e.buf = appendJSONString(e.buf, s)
	default:
		e.buf = append(e.buf, "null"...)
	}
}

// appendJSONString appends s as encoding/json writes it: printable ASCII other
// than `"`, `\`, `<`, `>` and `&` goes between quotes as is; any other string
// goes through json.Marshal, which escapes it as the standard library does.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// rejectHTTPConn answers an over-limit connection with a canned 503 +
// Retry-After — the connection-limit stage's typed shed response — without
// ever reading the request.
func (s *Server) rejectHTTPConn(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	body := fmt.Sprintf(`{"error":{"code":%q,"message":"connection limit reached","retry_after_ms":%d}}`,
		ShedConnections, s.cfg.RetryAfter.Milliseconds())
	fmt.Fprintf(c, "HTTP/1.1 503 Service Unavailable\r\nRetry-After: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		retryAfterSeconds(s.cfg.RetryAfter), len(body), body)
}
