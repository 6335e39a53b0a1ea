package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/relational"
	"xmlsql/internal/server"
	"xmlsql/internal/sharded"
	"xmlsql/internal/shred"
	"xmlsql/internal/wal"
)

// workloadDef is one of the five workloads.
type workloadDef struct {
	name string
	why  string
	// front is how requests reach the system: "proc" (Planner.Exec in this
	// process), "line" or "http" (an internal/server listener on loopback).
	front string
	// tailQ is the quantile query_p99_us reports on this workload: the
	// highest of 0.99/0.95/0.90 that keeps, with a margin, at least ten
	// samples beyond it in every class and 2 s window at this workload's
	// request rate.
	tailQ float64
}

var workloadDefs = []*workloadDef{
	{name: "cold-adhoc", front: "proc", tailQ: 0.99,
		why: "768 distinct expressions over six mappings against a 16-entry plan cache: every request pays parse, PathId, prune and SQLGen; tiny data"},
	{name: "hot-line", front: "line", tailQ: 0.99,
		why: "16 hot queries over the line protocol's Q verb: plan cache always hits and no rows ship, so per-request server overhead dominates"},
	{name: "rows-http", front: "http", tailQ: 0.95,
		why: "6 hot queries returning 600-2400 rows over HTTP GET /query: JSON encoding and the socket dominate a short execution"},
	{name: "scan-sharded", front: "proc", tailQ: 0.95,
		why: "4 queries returning 2.5k-30k rows from a 4-shard composite over 100 documents: engine scans and scatter/merge do the work"},
	{name: "mixed-rw", front: "line", tailQ: 0.95,
		why: "durable adaptive tenant: each client loops one fsynced update batch then four reads, two of them over the written relation"},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// numClients is the closed-loop fleet size.
func numClients() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// expect is the ground truth for one query of one instance.
type expect struct {
	// rows is the size of the verified answer. It can exceed the number of
	// reference values: a tuple that stores nothing in the selected column
	// (an optional element that is absent) is served as a NULL row, by the
	// pruned and the baseline translation alike. NULL rows are no value
	// occurrences and are left out of the multiset comparison, as the
	// repository's own P2 test does; the count of the verified answer,
	// NULL rows included, is what every later answer must repeat.
	rows int
	// slack is how many rows more than rows an answer may hold: on mixed-rw
	// every client has at most one inserted element live at any time.
	slack int
	// keys is the multiset of expected values, rendered by valueKey.
	keys map[string]int
	// httpLen is the expected HTTP body length less the digits of
	// elapsed_ns (rows-http).
	httpLen int
}

func (e *expect) checkRows(got int) error {
	if got < e.rows || got > e.rows+e.slack {
		return fmt.Errorf("wrong answer: %d rows, want %d (+%d)", got, e.rows, e.slack)
	}
	return nil
}

func valueKey(v relational.Value) string {
	switch v.Kind() {
	case relational.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case relational.KindString:
		return v.AsString()
	}
	return nullKey
}

// nullKey renders a NULL value (also the line protocol's rendering).
const nullKey = "NULL"

// sameMultiset compares rendered values, NULL rows left out, with the
// expected multiset.
func sameMultiset(want map[string]int, got []string) error {
	left := make(map[string]int, len(want))
	total := 0
	for k, n := range want {
		left[k] = n
		total += n
	}
	values := 0
	for _, k := range got {
		if k != nullKey {
			values++
		}
	}
	if values != total {
		return fmt.Errorf("wrong answer: %d values, reference has %d", values, total)
	}
	for _, k := range got {
		if k == nullKey {
			continue
		}
		left[k]--
		if left[k] < 0 {
			return fmt.Errorf("wrong answer: value %q not in the reference (or too often)", k)
		}
	}
	return nil
}

func resultKeys(res *xmlsql.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) == 0 {
			out = append(out, "")
			continue
		}
		out = append(out, valueKey(row[0]))
	}
	return out
}

// target is one loaded instance: a planner in this process or a tenant of
// the server.
type target struct {
	inst    *instance
	planner *xmlsql.Planner
	// results are the shredder's alignments, which the reference evaluator
	// walks; dropped after the oracle pass so they do not count as the
	// system's memory.
	results []*shred.Result
	tuples  int
	expect  []*expect
}

// env is a set-up workload, ready to serve.
type env struct {
	w       *workloadDef
	in      *inputs
	clients int
	targets []*target
	srv     *server.Server
	comp    *sharded.Sharded
	dataDir string
	// classOf[inst][query] is the latency class of a query; updateClass is
	// the class of update batches (-1 without updates).
	classOf     [][]int
	classNames  []string
	updateClass int
	ledgers     []*ledger
	closers     []func() error
	// recoverMs is how long reopening the data directory took (finalChecks).
	recoverMs float64
}

// ledger is one client's record of acknowledged update batches.
type ledger struct {
	client   int
	serial   int
	live     string // the category value inserted and not yet deleted
	inserted int
	deleted  int
}

func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

func quiet(string, ...any) {}

// setUp generates the inputs and brings the workload up to the point where
// it can answer: documents shredded and loaded, planners built, listeners
// bound. tmp is a directory the workload may write to.
func setUp(w *workloadDef, seed int64, tmp string, tr *spanBuf) (*env, error) {
	e := &env{w: w, clients: numClients(), updateClass: -1}
	var err error
	stage(tr, "workloads.generate", func() { e.in, err = generateInputs(w.name, seed) })
	if err != nil {
		return nil, err
	}
	e.buildClasses()
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	load := func(b xmlsql.Backend, inst *instance) ([]*shred.Result, error) {
		if err := b.EnsureSchema(inst.schema); err != nil {
			return nil, err
		}
		var res []*shred.Result
		var err error
		stage(tr, "shred.load", func() { res, err = b.Load(inst.schema, inst.docs...) })
		return res, err
	}

	switch w.name {
	case "cold-adhoc":
		for _, inst := range e.in.instances {
			mem := backend.NewMem()
			res, err := load(mem, inst)
			if err != nil {
				return nil, fmt.Errorf("%s: load: %w", inst.name, err)
			}
			p := xmlsql.NewPlannerWith(inst.schema, xmlsql.PlannerConfig{CacheSize: 16, Backend: mem})
			e.addTarget(inst, p, res)
		}
	case "scan-sharded":
		inst := e.in.instances[0]
		comp, err := sharded.NewMem(4, sharded.Options{})
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, comp.Close)
		res, err := load(comp, inst)
		if err != nil {
			return nil, fmt.Errorf("%s: load: %w", inst.name, err)
		}
		e.comp = comp
		p := xmlsql.NewPlannerWith(inst.schema, xmlsql.PlannerConfig{Backend: comp})
		e.addTarget(inst, p, res)
	case "hot-line", "rows-http", "mixed-rw":
		cfg := server.Config{Logf: quiet}
		if w.front == "http" {
			cfg.Addr = "127.0.0.1:0"
		} else {
			cfg.LineAddr = "127.0.0.1:0"
		}
		e.srv = server.New(cfg)
		e.closers = append(e.closers, e.srv.Close)
		for _, inst := range e.in.instances {
			tc := server.TenantConfig{Name: inst.name, Schema: inst.schema}
			var res []*shred.Result
			if e.writes() {
				e.dataDir = filepath.Join(tmp, "data")
				if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
					return nil, err
				}
				tc.DataDir = e.dataDir
				tc.Planner.Translate.Adaptive = true
				inst := inst
				tc.LoadBackend = func(b xmlsql.Backend) error {
					var err error
					res, err = load(b, inst)
					return err
				}
			} else {
				mem := backend.NewMem()
				var err error
				if res, err = load(mem, inst); err != nil {
					return nil, fmt.Errorf("%s: load: %w", inst.name, err)
				}
				tc.Backend = mem
			}
			t, err := e.srv.AddTenant(tc)
			if err != nil {
				return nil, err
			}
			e.addTarget(inst, t.Planner(), res)
		}
		if err := e.srv.Start(); err != nil {
			return nil, err
		}
		for c := 0; c < e.clients && e.writes(); c++ {
			e.ledgers = append(e.ledgers, &ledger{client: c})
		}
	}
	ok = true
	return e, nil
}

func (e *env) addTarget(inst *instance, p *xmlsql.Planner, res []*shred.Result) {
	e.targets = append(e.targets, &target{inst: inst, planner: p, results: res, expect: make([]*expect, len(inst.queries))})
}

// writes reports whether the workload sends update batches (mixed-rw): its
// tenant is then durable and plans adaptively.
func (e *env) writes() bool { return e.updateClass >= 0 }

func stage(tr *spanBuf, name string, f func()) {
	if tr == nil {
		f()
		return
	}
	tr.timed(name, 0, 0, f)
}

// buildClasses assigns latency classes: the mappings on cold-adhoc, the
// individual queries elsewhere, plus one class for update batches.
func (e *env) buildClasses() {
	perInstance := e.w.name == "cold-adhoc"
	for _, inst := range e.in.instances {
		row := make([]int, len(inst.queries))
		for q := range row {
			row[q] = len(e.classNames)
			if !perInstance {
				e.classNames = append(e.classNames, inst.name+" "+inst.queries[q])
			}
		}
		if perInstance {
			e.classNames = append(e.classNames, inst.name)
		}
		e.classOf = append(e.classOf, row)
	}
	if len(e.in.updateTargets) > 0 {
		e.updateClass = len(e.classNames)
		e.classNames = append(e.classNames, "update")
	}
}

func (e *env) class(op opRef) int {
	if op.Kind == opUpdate {
		return e.updateClass
	}
	return e.classOf[op.Inst][op.Query]
}

// checker compares single queries, answered by the loaded system, with
// direct evaluation of the path expression on the documents
// (shred.EvalReferenceAll), as multisets: once through the planner in this
// process and, on the served workloads, once more over the workload's own
// protocol (the D verb on the line protocol, the decoded JSON body on HTTP).
type checker struct {
	e    *env
	line *lineConn
	http *httpConn
}

func (e *env) newChecker() (*checker, error) {
	ck := &checker{e: e}
	switch e.w.front {
	case "line":
		c, err := dialLine(e.srv.LineAddr())
		if err != nil {
			return nil, err
		}
		ck.line = c
	case "http":
		ck.http = newHTTPConn(e.srv.HTTPAddr())
	}
	return ck, nil
}

func (ck *checker) close() {
	if ck.line != nil {
		ck.line.close()
	}
	if ck.http != nil {
		ck.http.close()
	}
}

// check verifies query qi of t and fixes the expectation the run holds
// every later answer to.
func (ck *checker) check(ctx context.Context, t *target, qi int) error {
	q := t.inst.queries[qi]
	fail := func(err error) error { return fmt.Errorf("%s %s: %w", t.inst.name, q, err) }
	p, err := pathexpr.Parse(q)
	if err != nil {
		return fail(err)
	}
	vals, err := shred.EvalReferenceAll(t.results, p)
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	ex := &expect{keys: make(map[string]int, len(vals))}
	for _, v := range vals {
		ex.keys[valueKey(v)]++
	}
	if ck.e.writes() {
		ex.slack = ck.e.clients
	}
	res, err := t.planner.Exec(ctx, q)
	if err != nil {
		return fail(err)
	}
	if err := sameMultiset(ex.keys, resultKeys(res)); err != nil {
		return fail(err)
	}
	ex.rows = res.Len()
	switch {
	case ck.line != nil:
		rows, err := ck.line.lineRows(t.inst.name, q)
		if err != nil {
			return fail(err)
		}
		if err := sameMultiset(ex.keys, rows); err != nil {
			return fail(fmt.Errorf("over the line protocol: %w", err))
		}
	case ck.http != nil:
		rep, qb, err := ck.http.get(queryURL(t.inst.name, q), true)
		if err != nil {
			return fail(err)
		}
		if err := checkHTTPBody(ex, qb); err != nil {
			return fail(fmt.Errorf("over HTTP: %w", err))
		}
		ex.httpLen = rep.bytes - digits(rep.serverNs)
	}
	t.expect[qi] = ex
	return nil
}

// firstAnswer checks the first query client 0 will send: set-up ends when
// the system has given one correct answer.
func (e *env) firstAnswer(ctx context.Context) error {
	ck, err := e.newChecker()
	if err != nil {
		return err
	}
	defer ck.close()
	for _, op := range e.in.schedule(0, e.clients) {
		if op.Kind == opQuery {
			return ck.check(ctx, e.targets[op.Inst], op.Query)
		}
	}
	return fmt.Errorf("schedule without a query")
}

// oracle checks every distinct query of the workload and returns how many
// it compared. Afterwards it lets go of what only the reference evaluator
// needed, so that it does not count as the system's memory.
func (e *env) oracle(ctx context.Context) (int, error) {
	ck, err := e.newChecker()
	if err != nil {
		return 0, err
	}
	defer ck.close()
	n := 0
	for _, t := range e.targets {
		for qi := range t.inst.queries {
			n++
			if err := ck.check(ctx, t, qi); err != nil {
				return n, err
			}
		}
	}
	for _, t := range e.targets {
		t.tuples = 0
		for _, r := range t.results {
			t.tuples += r.Tuples
		}
		t.results = nil
		if e.w.front != "http" && !e.writes() {
			for _, ex := range t.expect {
				ex.keys = nil
			}
		}
	}
	return n, nil
}

func checkHTTPBody(ex *expect, qb *queryBody) error {
	if qb.RowCount != len(qb.Rows) {
		return fmt.Errorf("wrong answer: row_count %d but %d rows", qb.RowCount, len(qb.Rows))
	}
	keys := make([]string, 0, len(qb.Rows))
	for _, row := range qb.Rows {
		if len(row) == 0 {
			keys = append(keys, "")
			continue
		}
		switch v := row[0].(type) {
		case float64:
			keys = append(keys, strconv.FormatInt(int64(v), 10))
		case string:
			keys = append(keys, v)
		default:
			keys = append(keys, nullKey)
		}
	}
	return sameMultiset(ex.keys, keys)
}

// finalChecks runs after the measured windows of a workload with updates:
// the answer over the written relation must equal the reference plus the
// ledger's live inserts, a full audit must be clean, and the reopened data
// directory must hold exactly the acknowledged state. It closes the env.
func (e *env) finalChecks(ctx context.Context) error {
	if !e.writes() {
		return nil
	}
	t := e.targets[0]
	live := map[string]int{}
	ins, del := 0, 0
	for _, l := range e.ledgers {
		ins += l.inserted
		del += l.deleted
		if l.live != "" {
			live[l.live]++
		}
	}
	if ins-del != len(live) {
		return fmt.Errorf("ledger: %d inserts - %d deletes != %d live", ins, del, len(live))
	}
	want := map[string]int{}
	for k, n := range t.expect[0].keys {
		want[k] = n
	}
	for k, n := range live {
		want[k] += n
	}
	c, err := dialLine(e.srv.LineAddr())
	if err != nil {
		return err
	}
	rows, err := c.lineRows(t.inst.name, t.inst.queries[0])
	c.close()
	if err != nil {
		return err
	}
	if err := sameMultiset(want, rows); err != nil {
		return fmt.Errorf("after the run, %s: %w", t.inst.queries[0], err)
	}
	rep, err := t.planner.Audit(ctx)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("audit after the run: %d violations", rep.Total)
	}
	// Reopen: close the server (flushing the log), recover the directory
	// and compare with the acknowledged state.
	mem, ok := t.planner.Backend().(*backend.Mem)
	if !ok {
		return fmt.Errorf("mixed-rw tenant is not on a mem backend")
	}
	liveDump := mem.Store().Dump()
	if err := e.close(); err != nil {
		return fmt.Errorf("closing the server: %w", err)
	}
	t0 := time.Now()
	mgr, _, err := wal.Open(e.dataDir, wal.Options{})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", e.dataDir, err)
	}
	e.recoverMs = float64(time.Since(t0)) / 1e6
	defer mgr.Close()
	if mgr.Store().Dump() != liveDump {
		return fmt.Errorf("recovered store differs from the acknowledged state")
	}
	rp := xmlsql.NewPlannerWith(t.inst.schema, xmlsql.PlannerConfig{Backend: backend.NewMemOn(mgr.Store())})
	res, err := rp.Exec(ctx, t.inst.queries[0])
	if err != nil {
		return err
	}
	if err := sameMultiset(want, resultKeys(res)); err != nil {
		return fmt.Errorf("after recovery, %s: %w", t.inst.queries[0], err)
	}
	return nil
}
