package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"xmlsql/internal/server"
)

// startLineServer runs a server with only the line listener.
func startLineServer(t *testing.T, limits *server.Limits) *server.Server {
	t.Helper()
	srv := server.New(server.Config{
		LineAddr: "127.0.0.1:0",
		Logf:     func(string, ...any) {},
	})
	cfg, _ := newXMarkTenant(t, "auctions", limits)
	if _, err := srv.AddTenant(cfg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

type lineConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &lineConn{c: c, r: bufio.NewReader(c)}
}

func (lc *lineConn) roundTrip(t *testing.T, req string) string {
	t.Helper()
	if _, err := fmt.Fprintf(lc.c, "%s\n", req); err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	resp, err := lc.r.ReadString('\n')
	if err != nil {
		t.Fatalf("%s: reading response: %v", req, err)
	}
	return strings.TrimSpace(resp)
}

func TestLineProtocol(t *testing.T) {
	srv := startLineServer(t, nil)
	lc := dialLine(t, srv.LineAddr())

	if got := lc.roundTrip(t, "PING"); got != "PONG" {
		t.Errorf("PING -> %q", got)
	}

	// Q: counted answer with server-side timing.
	got := lc.roundTrip(t, "Q auctions //Item/InCategory/Category")
	f := strings.Fields(got)
	if len(f) != 3 || f[0] != "OK" {
		t.Fatalf("Q -> %q", got)
	}
	if rows, _ := strconv.Atoi(f[1]); rows != 48 {
		t.Errorf("Q rows = %s, want 48", f[1])
	}
	if ns, _ := strconv.ParseInt(f[2], 10, 64); ns <= 0 {
		t.Errorf("Q elapsed_ns = %s, want positive", f[2])
	}

	// D: framed rows terminated by ".".
	got = lc.roundTrip(t, "D auctions //Item/name")
	if !strings.HasPrefix(got, "ROWS 24") {
		t.Fatalf("D -> %q, want ROWS 24", got)
	}
	seen := 0
	for {
		line, err := lc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "." {
			break
		}
		seen++
	}
	if seen != 24 {
		t.Errorf("D framed %d rows, want 24", seen)
	}

	// STATS: per-tenant counters, "." terminated.
	if got := lc.roundTrip(t, "STATS"); got != "OK" {
		t.Fatalf("STATS -> %q", got)
	}
	sawTenant := false
	for {
		line, err := lc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if line == "." {
			break
		}
		if strings.HasPrefix(line, "auctions ") {
			sawTenant = true
		}
	}
	if !sawTenant {
		t.Error("STATS output missing the auctions tenant")
	}

	// Errors are typed single lines.
	if got := lc.roundTrip(t, "BOGUS"); !strings.HasPrefix(got, "ERR bad_request") {
		t.Errorf("BOGUS -> %q", got)
	}
	if got := lc.roundTrip(t, "Q nosuch //Item"); !strings.HasPrefix(got, "ERR unknown_tenant") {
		t.Errorf("unknown tenant -> %q", got)
	}
	if got := lc.roundTrip(t, "Q auctions //Item["); !strings.HasPrefix(got, "ERR bad_query") {
		t.Errorf("bad query -> %q", got)
	}
	if got := lc.roundTrip(t, "Q auctions"); !strings.HasPrefix(got, "ERR bad_request") {
		t.Errorf("missing query -> %q", got)
	}

	// QUIT closes the connection.
	fmt.Fprintln(lc.c, "QUIT")
	if _, err := lc.r.ReadString('\n'); err == nil {
		t.Error("connection still open after QUIT")
	}
}

// A string value holding a tab, a newline and a CR comes back from D on one
// line, each escaped as a backslash sequence.
func TestLineProtocolDEscapesFraming(t *testing.T) {
	srv := startLineServer(t, nil)
	lc := dialLine(t, srv.LineAddr())

	muts := `[{"op":"insert","path":"/Site/Regions/Asia/Item","xml":"<InCategory><Category>a&#9;b&#10;c&#13;d</Category></InCategory>"}]`
	if got := lc.roundTrip(t, "U auctions "+muts); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("U -> %q", got)
	}
	if got := lc.roundTrip(t, "D auctions //Item/InCategory/Category"); got != "ROWS 52" {
		t.Fatalf("D -> %q, want ROWS 52", got)
	}
	escaped := 0
	for {
		line, err := lc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == ".\n" {
			break
		}
		if line == `a\tb\nc\rd`+"\n" {
			escaped++
		}
	}
	if escaped != 4 { // one new category under each of the 4 Asia items
		t.Errorf("D framed %d escaped rows, want 4", escaped)
	}
}

func TestLineProtocolRateShed(t *testing.T) {
	srv := startLineServer(t, &server.Limits{RatePerSec: 1, Burst: 1})
	lc := dialLine(t, srv.LineAddr())

	if got := lc.roundTrip(t, "Q auctions //Item/name"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("first query -> %q", got)
	}
	got := lc.roundTrip(t, "Q auctions //Item/name")
	f := strings.Fields(got)
	if len(f) < 3 || f[0] != "ERR" || f[1] != "shed_rate" {
		t.Fatalf("over-rate query -> %q, want ERR shed_rate", got)
	}
	if ms, _ := strconv.ParseInt(f[2], 10, 64); ms <= 0 {
		t.Errorf("shed line retry_after_ms = %s, want positive", f[2])
	}

	// The shed does not kill the connection: PING still answers.
	if got := lc.roundTrip(t, "PING"); got != "PONG" {
		t.Errorf("PING after shed -> %q", got)
	}
}
