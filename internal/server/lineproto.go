package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"xmlsql"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/relational"
	"xmlsql/internal/resilient"
)

// The line protocol: one request per line, one (or, for D, a framed block
// of) response line(s). It exists for cheap closed-loop benchmarking — a
// client can measure per-query serving latency without HTTP parsing on
// either side — and for quick manual poking with nc.
//
//	Q <tenant> <query>   execute; respond "OK <rows> <elapsed_ns>"
//	D <tenant> <query>   execute; respond "ROWS <n>", n tab-separated value
//	                     lines, then "."
//	U <tenant> <json>    apply a mutation batch; <json> is a one-line JSON
//	                     array of {"op","path","xml"} objects (op: insert /
//	                     delete / replace). Respond "OK <stmts> <written>
//	                     <deleted> <elapsed_ns>"; the batch is atomic.
//	PING                 respond "PONG"
//	STATS                respond "OK" followed by one "<tenant> <queries>
//	                     <shed>" line per tenant, then "."
//	QUIT                 close the connection
//
// Errors are one line: "ERR <code> <retry_after_ms> <message>". Shed codes
// (shed_rate, shed_capacity, shed_connections, draining) carry a non-zero
// retry-after hint; clients should back off that long before retrying.

// acceptLines is the line listener's accept loop.
func (s *Server) acceptLines() {
	defer s.acceptWG.Done()
	for {
		c, err := s.lineLn.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.lineConnsMu.Lock()
		s.lineConns[c] = struct{}{}
		s.lineConnsMu.Unlock()
		s.lineWG.Add(1)
		go s.serveLineConn(c)
	}
}

func (s *Server) serveLineConn(c net.Conn) {
	defer s.lineWG.Done()
	defer func() {
		s.lineConnsMu.Lock()
		delete(s.lineConns, c)
		s.lineConnsMu.Unlock()
		c.Close()
	}()
	r := bufio.NewScanner(c)
	r.Buffer(make([]byte, 0, 4096), 1<<20)
	w := bufio.NewWriter(c)
	for r.Scan() {
		if s.draining.Load() {
			s.shedDraining.Add(1)
			writeLineError(w, &ShedError{Reason: ShedDraining, RetryAfter: s.cfg.RetryAfter})
			w.Flush()
			return
		}
		if done := s.handleLine(w, strings.TrimSpace(r.Text())); done {
			w.Flush()
			return
		}
		if w.Flush() != nil {
			return
		}
	}
}

// handleLine serves one request line; true means close the connection.
func (s *Server) handleLine(w *bufio.Writer, line string) bool {
	switch {
	case line == "":
		return false
	case line == "PING":
		fmt.Fprintln(w, "PONG")
		return false
	case line == "QUIT":
		return true
	case line == "STATS":
		fmt.Fprintln(w, "OK")
		for _, name := range s.tenantNames() {
			if t := s.Tenant(name); t != nil {
				st := t.Stats()
				fmt.Fprintf(w, "%s %d %d\n", name, st.Queries, st.ShedRate+st.ShedCapacity)
			}
		}
		fmt.Fprintln(w, ".")
		return false
	}
	verb, rest, ok := strings.Cut(line, " ")
	if !ok || (verb != "Q" && verb != "D" && verb != "U") {
		writeLineErrorCode(w, "bad_request", 0, fmt.Sprintf("unknown command %q", line))
		return false
	}
	tenant, query, ok := strings.Cut(rest, " ")
	if !ok || tenant == "" || query == "" {
		arg := "query"
		if verb == "U" {
			arg = "json-mutations"
		}
		writeLineErrorCode(w, "bad_request", 0, fmt.Sprintf("%s wants: %s <tenant> <%s>", verb, verb, arg))
		return false
	}
	t := s.Tenant(tenant)
	if t == nil {
		writeLineErrorCode(w, "unknown_tenant", 0, fmt.Sprintf("tenant %q not registered", tenant))
		return false
	}
	if verb == "U" {
		var muts []updateMutationWire
		if err := json.Unmarshal([]byte(query), &muts); err != nil {
			writeLineErrorCode(w, "bad_request", 0, fmt.Sprintf("parsing mutations: %v", err))
			return false
		}
		batch, err := decodeBatch(muts)
		if err != nil {
			writeLineErrorCode(w, "bad_request", 0, err.Error())
			return false
		}
		res, elapsed, err := s.executeUpdate(context.Background(), t, batch)
		if err != nil {
			writeLineError(w, err)
			return false
		}
		fmt.Fprintf(w, "OK %d %d %d %d\n", res.Stmts, len(res.Touched.Written), len(res.Touched.Deleted), elapsed.Nanoseconds())
		return false
	}
	if _, err := pathexpr.Parse(query); err != nil {
		writeLineErrorCode(w, "bad_query", 0, err.Error())
		return false
	}
	res, elapsed, err := s.execute(context.Background(), t, query)
	if err != nil {
		writeLineError(w, err)
		return false
	}
	if verb == "Q" {
		fmt.Fprintf(w, "OK %d %d\n", res.Len(), elapsed.Nanoseconds())
		return false
	}
	fmt.Fprintf(w, "ROWS %d\n", res.Len())
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				w.WriteByte('\t')
			}
			w.WriteString(lineValue(v))
		}
		w.WriteByte('\n')
	}
	fmt.Fprintln(w, ".")
	return false
}

// lineEscaper keeps D's line framing; a Replacer is safe for concurrent use.
var lineEscaper = strings.NewReplacer("\t", `\t`, "\n", `\n`, "\r", `\r`)

// lineValue renders a value for the D response.
func lineValue(v relational.Value) string {
	switch v.Kind() {
	case relational.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case relational.KindString:
		return lineEscaper.Replace(v.AsString())
	default:
		return "NULL"
	}
}

// writeLineError maps an execution error to its ERR line, mirroring
// writeExecError's HTTP mapping.
func writeLineError(w *bufio.Writer, err error) {
	var shed *ShedError
	var re *engine.ResourceError
	var ue *xmlsql.UpdateError
	switch {
	case errors.As(err, &ue):
		writeLineErrorCode(w, "update_"+ue.Kind.String(), 0, err.Error())
	case errors.As(err, &shed):
		writeLineErrorCode(w, string(shed.Reason), shed.RetryAfter, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeLineErrorCode(w, "timeout", 0, err.Error())
	case errors.Is(err, resilient.ErrBreakerOpen):
		writeLineErrorCode(w, "unavailable", DefaultRetryAfter, err.Error())
	case errors.As(err, &re):
		writeLineErrorCode(w, "resource_limit", 0, err.Error())
	default:
		writeLineErrorCode(w, "internal", 0, err.Error())
	}
}

func writeLineErrorCode(w *bufio.Writer, code string, retryAfter time.Duration, msg string) {
	fmt.Fprintf(w, "ERR %s %d %s\n", code, retryAfter.Milliseconds(), strings.ReplaceAll(msg, "\n", " "))
}

// rejectLineConn answers an over-limit connection with the typed shed line.
func (s *Server) rejectLineConn(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintf(c, "ERR %s %d connection limit reached\n", ShedConnections, s.cfg.RetryAfter.Milliseconds())
}
