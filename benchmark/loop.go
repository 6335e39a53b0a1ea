package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlsql"
)

// client issues the operations of one closed-loop client and checks every
// answer against the oracle's expectations.
type client struct {
	e      *env
	id     int
	ledger *ledger
	line   *lineConn
	http   *httpConn
	// lineReqs[inst][query] and httpPaths[inst][query] are built once, so
	// the load generator spends its time waiting, not formatting.
	lineReqs  [][][]byte
	httpPaths [][]string
	gets      int
}

func (e *env) newClient(id int) (*client, error) {
	c := &client{e: e, id: id}
	if e.ledgers != nil {
		c.ledger = e.ledgers[id]
	}
	switch e.w.front {
	case "line":
		conn, err := dialLine(e.srv.LineAddr())
		if err != nil {
			return nil, err
		}
		c.line = conn
		for _, t := range e.targets {
			var reqs [][]byte
			for _, q := range t.inst.queries {
				reqs = append(reqs, lineQuery(t.inst.name, q))
			}
			c.lineReqs = append(c.lineReqs, reqs)
		}
	case "http":
		c.http = newHTTPConn(e.srv.HTTPAddr())
		for _, t := range e.targets {
			var paths []string
			for _, q := range t.inst.queries {
				paths = append(paths, queryURL(t.inst.name, q))
			}
			c.httpPaths = append(c.httpPaths, paths)
		}
	}
	return c, nil
}

func (c *client) close() {
	if c.line != nil {
		c.line.close()
	}
	if c.http != nil {
		c.http.close()
	}
}

// do issues one operation and verifies its answer. sp, when set, receives
// the spans of the request, recorded from this side of the interface.
func (c *client) do(ctx context.Context, op opRef, sp *spanBuf) (reply, error) {
	if op.Kind == opUpdate {
		return c.update(sp)
	}
	t := c.e.targets[op.Inst]
	ex := t.expect[op.Query]
	var root int32
	var req, t0 int64
	if sp != nil {
		root, req, t0 = sp.id(), sp.t.request(), sp.t.now()
	}
	var rep reply
	switch c.e.w.front {
	case "proc":
		q := t.inst.queries[op.Query]
		if sp == nil {
			res, err := t.planner.Exec(ctx, q)
			if err != nil {
				return rep, err
			}
			rep.rows = res.Len()
			break
		}
		// Traced: the two halves of Planner.Exec, called one by one.
		var tr *xmlsql.Translation
		var err error
		sp.timed("planner.plan", root, req, func() { tr, err = t.planner.Plan(q) })
		if err != nil {
			return rep, err
		}
		name := "engine.exec"
		if c.e.comp != nil {
			name = "sharded.exec"
		}
		sp.timed(name, root, req, func() {
			res, e2 := t.planner.Backend().Execute(ctx, tr.Query)
			if err = e2; err == nil {
				rep.rows = res.Len()
			}
		})
		if err != nil {
			return rep, err
		}
	case "line":
		var err error
		if rep, err = c.line.roundTrip(c.lineReqs[op.Inst][op.Query]); err != nil {
			return rep, err
		}
	case "http":
		// One answer in 64 is decoded in full and compared with the
		// reference; the others are checked by row count and body length.
		c.gets++
		decode := c.gets%64 == 1
		var qb *queryBody
		var err error
		if rep, qb, err = c.http.get(c.httpPaths[op.Inst][op.Query], decode); err != nil {
			return rep, err
		}
		if got := rep.bytes - digits(rep.serverNs); got != ex.httpLen {
			return rep, fmt.Errorf("wrong answer: body of %d bytes, want %d", got, ex.httpLen)
		}
		if decode {
			if err := checkHTTPBody(ex, qb); err != nil {
				return rep, err
			}
		}
	}
	if sp != nil {
		c.wireSpans(sp, root, req, t0, rep)
	}
	return rep, ex.checkRows(rep.rows)
}

// wireSpans closes a request's root span. For served requests the server's
// own elapsed_ns, which it reports on the wire, becomes a child span (placed
// in the middle of the round trip, since only its length is known), and the
// client's decode time another; what is left as the root's self time is the
// front end and the socket, both directions.
func (c *client) wireSpans(sp *spanBuf, root int32, req, t0 int64, rep reply) {
	t1 := sp.t.now()
	if c.e.w.front != "proc" {
		rtt := t1 - t0 - rep.decodeNs
		if srv := rep.serverNs; srv > 0 && srv <= rtt {
			start := t0 + (rtt-srv)/2
			sp.add(sp.id(), root, req, "server.exec", start, start+srv)
		}
		if rep.decodeNs > 0 {
			sp.add(sp.id(), root, req, "client.decode", t1-rep.decodeNs, t1)
		}
	}
	sp.add(root, 0, req, "request."+c.e.w.front, t0, t1)
}

// update sends the client's next batch: an insert of one InCategory with a
// category value nobody else uses, or the delete of the one inserted before.
func (c *client) update(sp *spanBuf) (reply, error) {
	l := c.ledger
	tenant := c.e.targets[0].inst.name
	var m mutation
	inserting := l.live == ""
	value := l.live
	if inserting {
		targets := c.e.in.updateTargets
		value = "bench-" + strconv.Itoa(l.client) + "-" + strconv.Itoa(l.serial)
		m = mutation{Op: "insert",
			Path: "//Item[name='" + targets[(l.client+l.serial)%len(targets)] + "']",
			XML:  "<InCategory><Category>" + value + "</Category></InCategory>"}
	} else {
		m = mutation{Op: "delete", Path: "//Item/InCategory[Category='" + value + "']"}
	}
	l.serial++
	var root int32
	var req, t0 int64
	if sp != nil {
		root, req, t0 = sp.id(), sp.t.request(), sp.t.now()
	}
	rep, err := c.line.roundTrip(lineUpdate(tenant, m))
	if err != nil {
		return rep, err
	}
	if sp != nil {
		c.wireSpans(sp, root, req, t0, rep)
	}
	// The batch is acknowledged: it goes into the ledger whatever else is
	// wrong with the answer.
	if inserting {
		l.live = value
		l.inserted++
		if rep.rows != 1 || rep.deleted != 0 {
			return rep, fmt.Errorf("wrong answer: insert wrote %d and deleted %d tuples, want 1 and 0", rep.rows, rep.deleted)
		}
	} else {
		l.live = ""
		l.deleted++
		if rep.deleted != 1 {
			return rep, fmt.Errorf("wrong answer: delete removed %d tuples, want 1", rep.deleted)
		}
	}
	return rep, nil
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	windowDur time.Duration
	// lat[w][class] holds the latencies of the correct operations that
	// completed in window w.
	lat [][]hist
	// rssKB[w] is the largest resident set sampled in window w.
	rssKB []int64
	// Kept by traced runs only, per class over all windows: the server's
	// own elapsed_ns, and the round trip less that (and less the client's
	// decode time).
	srv, front []hist
	decode     hist  // client-side JSON decode times
	stmts      int64 // DML statements of the acknowledged updates, and their number
	updates    int64
	respBytes  int64 // HTTP body bytes received, and the rows they carried
	respRows   int64
	attempted  int
	failed     int
	firstErr   error
}

func (r *loopResult) merge(o *loopResult) {
	for w := range r.lat {
		for c := range r.lat[w] {
			r.lat[w][c].merge(&o.lat[w][c])
		}
	}
	for c := range r.srv {
		r.srv[c].merge(&o.srv[c])
		r.front[c].merge(&o.front[c])
	}
	r.decode.merge(&o.decode)
	r.stmts += o.stmts
	r.updates += o.updates
	r.respBytes += o.respBytes
	r.respRows += o.respRows
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func newLoopResult(windows int, windowDur time.Duration, classes int, detail bool) *loopResult {
	r := &loopResult{windowDur: windowDur, lat: make([][]hist, windows), rssKB: make([]int64, windows)}
	for w := range r.lat {
		r.lat[w] = make([]hist, classes)
	}
	if detail {
		r.srv, r.front = make([]hist, classes), make([]hist, classes)
	}
	return r
}

// runLoop drives the closed loop: every client sends its next operation when
// the previous one is answered, for warm-up plus windows x windowDur. Only
// operations completing inside a window are measured; all are checked.
// detail additionally keeps server-side times and answer sizes (traced
// runs); tr, when set, records spans around every request.
func runLoop(ctx context.Context, e *env, warm, windowDur time.Duration, windows int, detail bool, tr *tracer) (*loopResult, error) {
	clients := make([]*client, e.clients)
	for i := range clients {
		c, err := e.newClient(i)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	total := newLoopResult(windows, windowDur, len(e.classNames), detail)
	parts := make([]*loopResult, e.clients)

	start := time.Now().Add(warm)
	end := start.Add(time.Duration(windows) * windowDur)

	var stop atomic.Bool
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for !stop.Load() {
			if w := int(time.Since(start) / windowDur); time.Now().After(start) && w < windows {
				if kb := procStatusKB("VmRSS"); kb > total.rssKB[w] {
					total.rssKB[w] = kb
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i, c := range clients {
		part := newLoopResult(windows, windowDur, len(e.classNames), detail)
		parts[i] = part
		var sp *spanBuf
		if tr != nil {
			sp = tr.buf()
		}
		wg.Add(1)
		go func(c *client, part *loopResult, sched []opRef) {
			defer wg.Done()
			for step := 0; ; step++ {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				op := sched[step%len(sched)]
				rep, err := c.do(ctx, op, sp)
				t1 := time.Now()
				part.attempted++
				if err != nil {
					part.failed++
					if part.firstErr == nil {
						part.firstErr = fmt.Errorf("client %d, %s: %w", c.id, e.classNames[e.class(op)], err)
					}
					continue
				}
				w := int(t1.Sub(start) / windowDur)
				if t1.Before(start) || w >= windows {
					continue
				}
				cl := e.class(op)
				lat := int64(t1.Sub(t0))
				part.lat[w][cl].add(lat)
				if detail {
					part.srv[cl].add(rep.serverNs)
					part.front[cl].add(lat - rep.decodeNs - rep.serverNs)
					if op.Kind == opUpdate {
						part.stmts += int64(rep.stmts)
						part.updates++
					}
					part.respBytes += int64(rep.bytes)
					if rep.bytes > 0 {
						part.respRows += int64(rep.rows)
					}
					if rep.decodeNs > 0 {
						part.decode.add(rep.decodeNs)
					}
				}
			}
		}(c, part, e.in.schedule(i, e.clients))
	}
	wg.Wait()
	stop.Store(true)
	samplerWG.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	return total, nil
}

// rssMB gives the peak resident set of each window, in MB.
func (r *loopResult) rssMB() []float64 {
	out := make([]float64, len(r.rssKB))
	for w, kb := range r.rssKB {
		out[w] = float64(kb) / 1024
	}
	return out
}

// opsPerSecond gives the correct operations completed per second in each
// window.
func (r *loopResult) opsPerSecond() []float64 {
	out := make([]float64, len(r.lat))
	for w := range r.lat {
		n := 0
		for c := range r.lat[w] {
			n += r.lat[w][c].n
		}
		out[w] = float64(n) / r.windowDur.Seconds()
	}
	return out
}

// latency gives, per window, the q-quantile of the chosen classes combined
// by geometric mean, in microseconds, and the fewest samples any class and
// window had beyond the quantile.
func (r *loopResult) latency(q float64, pick func(class int) bool) (perWindow []float64, minBeyond int) {
	minBeyond = math.MaxInt
	for w := range r.lat {
		var classes []*hist
		for c := range r.lat[w] {
			if pick(c) {
				classes = append(classes, &r.lat[w][c])
			}
		}
		us, beyond := classQuantiles(classes, q)
		perWindow = append(perWindow, us)
		if beyond < minBeyond {
			minBeyond = beyond
		}
	}
	return perWindow, minBeyond
}

// procStatusKB reads one kB field of /proc/self/status (VmRSS, VmHWM).
func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				n, _ := strconv.ParseInt(f[1], 10, 64)
				return n
			}
		}
	}
	return 0
}
