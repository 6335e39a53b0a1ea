//go:build !race

// Allocation budgets depend on the allocator seeing only the code under test,
// which the race detector's instrumentation breaks; CI's -race step skips
// this file and plain `go test` runs it.

package engine_test

import (
	"context"
	"database/sql"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sharded"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/wal"
	"xmlsql/internal/workloads"
)

// joinKinds are the options that steer a two-table equi-join to each
// physical join.
var joinKinds = []struct {
	name string
	opts engine.Options
}{
	{"index", engine.Options{}},
	{"hash", engine.Options{DisableIndexes: true}},
	{"nested-loop", engine.Options{ForceNestedLoop: true}},
}

func allocsPerExec(t *testing.T, s *relational.Store, q *sqlast.Query, opts engine.Options) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if _, err := engine.Execute(context.Background(), s, q, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// bytesPerExec is AllocsPerRun for bytes.
func bytesPerExec(t *testing.T, s *relational.Store, q *sqlast.Query, opts engine.Options) float64 {
	t.Helper()
	return bytesPerRun(func() {
		if _, err := engine.Execute(context.Background(), s, q, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// bytesPerRun is the mean bytes one call of run allocates.
func bytesPerRun(run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// A scan + project allocates per result, not per row.
func TestScanProjectAllocsIndependentOfRows(t *testing.T) {
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("c", "v"), sqlast.Col("c", "id")},
		From: []sqlast.FromItem{{Source: "AC", Alias: "c"}},
	})
	small := allocsPerExec(t, allocStore(t, 125, 8), q, engine.Options{})
	large := allocsPerExec(t, allocStore(t, 1000, 8), q, engine.Options{})
	if d := large - small; d < -2 || d > 2 {
		t.Errorf("scan+project: %.0f allocs over 1k rows, %.0f over 8k", small, large)
	}
}

// An unfiltered one-column scan allocates one row header per row and no
// values: each result row is a window onto its stored row.
func TestOneColumnScanAllocatesOnlyRowHeaders(t *testing.T) {
	const fixed = 16 << 10
	header := float64(unsafe.Sizeof(relational.Row{}))
	q := acSelect(nil, sqlast.Col("c", "v"))
	for _, parents := range []int{125, 1000} {
		n := float64(parents * 8)
		if got := bytesPerExec(t, allocStore(t, parents, 8), q, engine.Options{}); got > header*n+fixed {
			t.Errorf("one-column scan of %.0f rows: %.0f bytes, budget %.0f per row plus %d", n, got, header, fixed)
		}
	}
}

// A UNION ALL of two one-column scans allocates one row slice, for the whole
// answer: the branches project straight into it.
func TestUnionOfScansAllocatesOneRowSlice(t *testing.T) {
	const fixed = 16 << 10
	header := float64(unsafe.Sizeof(relational.Row{}))
	scan := &sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: []sqlast.FromItem{{Source: "AC", Alias: "c"}}}
	q := &sqlast.Query{Selects: []*sqlast.Select{scan, scan}}
	n := float64(2 * 1000 * 8)
	if got := bytesPerExec(t, allocStore(t, 1000, 8), q, engine.Options{}); got > header*n+fixed {
		t.Errorf("union of two one-column scans, %.0f rows: %.0f bytes, budget %.0f per row plus %d", n, got, header, fixed)
	}
}

// A scatter of a one-column scan allocates one row header per answer row and
// no values, at any shard count: each shard's rows are projected once,
// straight into the answer.
func TestScatterScanAllocatesOnlyRowHeaders(t *testing.T) {
	const fixed = 16 << 10
	header := float64(unsafe.Sizeof(relational.Row{}))
	cfg := workloads.DefaultXMarkConfig()
	cfg.ItemsPerContinent = 25
	docs := workloads.GenerateXMarkScale(cfg, 40)
	q := sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("I", "name")}, From: []sqlast.FromItem{sqlast.From("Item", "I")}})
	for _, shards := range []int{1, 2, 4} {
		comp, err := sharded.NewMem(shards, sharded.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := comp.Load(workloads.XMark(), docs...); err != nil {
			t.Fatal(err)
		}
		var res *engine.Result
		got := bytesPerRun(func() {
			if res, err = comp.Execute(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
		if n := float64(res.Len()); got > header*n+fixed {
			t.Errorf("%d-shard scan of %.0f rows: %.0f bytes, budget %.0f per row plus %d", shards, n, got, header, fixed)
		}
	}
}

// A projection onto one ascending run of columns allocates nothing per row
// over the filter or join it reads: projecting the same columns reordered
// costs exactly one more arena of values, its row headers rewriting the
// filter's or the join's row slice in place.
func TestWindowProjectionAllocatesNothingPerRow(t *testing.T) {
	const slack = 1 << 10
	s := allocStore(t, 1000, 8)
	keepAll := sqlast.Cmp{Op: sqlast.OpNe, Left: sqlast.ColRef{Table: "c", Column: "parentid"}, Right: sqlast.IntLit(0)}
	join := func(a, b sqlast.SelectItem) *sqlast.Query {
		return sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{a, b}, From: joinFrom, Where: joinEq})
	}
	id, parent, v := sqlast.Col("c", "id"), sqlast.Col("c", "parentid"), sqlast.Col("c", "v")
	for _, c := range []struct {
		what              string
		window, reordered *sqlast.Query
	}{
		{"filtered scan", acSelect(keepAll, id, parent), acSelect(keepAll, parent, id)},
		{"index join", join(id, v), join(v, id)},
	} {
		res, err := engine.Execute(context.Background(), s, c.window, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := res.Len()
		var values []relational.Value
		arena := bytesPerRun(func() { values = make([]relational.Value, 2*n) })
		_ = values
		window, reordered := bytesPerExec(t, s, c.window, engine.Options{}), bytesPerExec(t, s, c.reordered, engine.Options{})
		if projection := window - (reordered - arena); projection > slack {
			t.Errorf("%s: the window projection of %d rows allocates %.0f bytes (%.0f against %.0f for the reordered one, whose arena is %.0f)",
				c.what, n, projection, window, reordered, arena)
		}
	}
}

// A Q2-shaped block (a local filter, an index join, one child column)
// allocates its answer's row headers and little else: each join row is a
// window onto the stored child row, and the join's output, sized once from
// the index, becomes the answer's row slice.
func TestFilteredIndexJoinAllocatesOnlyRowHeaders(t *testing.T) {
	const fixed = 16 << 10
	header := float64(unsafe.Sizeof(relational.Row{}))
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom,
		Where: sqlast.Conj(joinEq, sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(3))),
	})
	for _, parents := range []int{125, 1000} {
		s := allocStore(t, parents, 8)
		res, err := engine.Execute(context.Background(), s, q, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(res.Len())
		if got := bytesPerExec(t, s, q, engine.Options{}); got > header*n+fixed {
			t.Errorf("filtered index join of %.0f rows: %.0f bytes, budget %.0f per row plus %d", n, got, header, fixed)
		}
	}
}

// An index join whose left keys mostly miss a skewed index sizes its output
// for the index's mean bucket, but never past one row per probed row: one
// parent's 1000 children and ten single children, probed by 1000 parents
// of which one hits the big bucket. Besides the output, the join allocates
// only its probe buffer, which holds the largest bucket.
func TestSkewedIndexJoinCapsOutputAtTable(t *testing.T) {
	const slack = 4 << 10
	s := allocStore(t, 0, 0)
	p, c := s.Table("AP"), s.Table("AC")
	for i := int64(1); i <= 1000; i++ {
		p.MustInsert(relational.Row{relational.Int(i + 1000), relational.Int(0)})
		c.MustInsert(relational.Row{relational.Int(i), relational.Int(1001), relational.String("v")})
	}
	for i := int64(1); i <= 10; i++ {
		c.MustInsert(relational.Row{relational.Int(i + 1000), relational.Int(-i), relational.String("v")})
	}
	q := sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom, Where: joinEq})
	res, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	right := c.Len()
	if res.Len() != 1000 || cap(res.Rows) > right {
		t.Errorf("skewed index join: %d rows with capacity %d, want 1000 rows and capacity at most the %d probed rows", res.Len(), cap(res.Rows), right)
	}
	header := float64(unsafe.Sizeof(relational.Row{}))
	if got := bytesPerExec(t, s, q, engine.Options{}); got > header*float64(right+1000)+slack {
		t.Errorf("skewed index join: %.0f bytes, budget %.0f per probed row and per row of the largest bucket, plus %d", got, header, slack)
	}
}

// An index join's allocations grow with the log of its output.
func TestIndexJoinAllocsGrowWithLogOfOutput(t *testing.T) {
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom, Where: joinEq,
	})
	small := allocsPerExec(t, allocStore(t, 125, 8), q, engine.Options{})
	large := allocsPerExec(t, allocStore(t, 1000, 8), q, engine.Options{})
	// Three doublings of the output; a per-row allocation would add 7000.
	if large-small > 3*6 {
		t.Errorf("index join: %.0f allocs for 1k rows out, %.0f for 8k", small, large)
	}
}

// A join that emits one row allocates at most 16 rows' worth of values for
// it: join arenas start small, so point queries do not pay for big chunks.
func TestOneRowJoinAllocatesLittle(t *testing.T) {
	s := allocStore(t, 64, 1)
	point := func(id int64) *sqlast.Query {
		return sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom,
			Where: sqlast.Conj(joinEq, sqlast.Eq(sqlast.ColRef{Table: "p", Column: "id"}, sqlast.IntLit(id))),
		})
	}
	const width = 5 // AP's 2 columns + AC's 3
	budget := 16 * width * float64(unsafe.Sizeof(relational.Value{}))
	for _, k := range joinKinds {
		one := bytesPerExec(t, s, point(7), k.opts)
		none := bytesPerExec(t, s, point(-1), k.opts)
		if extra := one - none; extra > budget {
			t.Errorf("%s join: emitting one row costs %.0f bytes more than emitting none, budget %.0f", k.name, extra, budget)
		}
	}
}

// A UNION ALL of two copies of a join allocates no more than running the join
// alone twice: each branch trims its join to the one column it projects, and
// nothing is kept across branches. The merged result's row slice is the only
// extra allocation.
func TestUnionAllocatesNoMoreThanItsBranches(t *testing.T) {
	s := allocStore(t, 125, 8)
	join := &sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom,
		Where: sqlast.Conj(joinEq, sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(3))),
	}
	var res *engine.Result
	exec := func(q *sqlast.Query) {
		var err error
		if res, err = engine.Execute(context.Background(), s, q, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	union := func() { exec(&sqlast.Query{Selects: []*sqlast.Select{join, join}}) }
	twice := func() { exec(sqlast.SingleSelect(join)); exec(sqlast.SingleSelect(join)) }
	if u, a := testing.AllocsPerRun(20, union), testing.AllocsPerRun(20, twice); u > a {
		t.Errorf("union of two joins: %.0f allocs, the join run alone twice: %.0f", u, a)
	}
	union()
	var merged []relational.Row
	mergedBytes := bytesPerRun(func() { merged = make([]relational.Row, 0, res.Len()) })
	if u, a := bytesPerRun(union), bytesPerRun(twice); u > a+mergedBytes {
		t.Errorf("union of two joins: %.0f bytes, the join run alone twice: %.0f, the merged rows: %.0f", u, a, mergedBytes)
	}
	_ = merged
}

// assertCappedRows checks that every row is a capacity-capped window: an
// append to Rows[0] copies instead of overwriting Rows[1].
func assertCappedRows(t *testing.T, what string, res *engine.Result) {
	t.Helper()
	if len(res.Rows) < 2 {
		t.Fatalf("%s: %d rows, need at least 2", what, len(res.Rows))
	}
	for i, r := range res.Rows {
		if cap(r) != len(r) {
			t.Fatalf("%s: row %d has len %d, cap %d", what, i, len(r), cap(r))
		}
	}
	want := res.Rows[1].Clone()
	grown := append(res.Rows[0], relational.String("appended"))
	for i := range want {
		if res.Rows[1][i] != want[i] {
			t.Fatalf("%s: appending to row 0 changed row 1 to %v", what, res.Rows[1])
		}
	}
	if &grown[0] == &res.Rows[0][0] {
		t.Fatalf("%s: append wrote into the shared arena", what)
	}
}

func TestResultRowsAreCappedWindows(t *testing.T) {
	s := allocStore(t, 8, 3)
	run := func(what string, q *sqlast.Query, opts engine.Options) *engine.Result {
		t.Helper()
		res, err := engine.Execute(context.Background(), s, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertCappedRows(t, what, res)
		return res
	}
	run("projection", acSelect(nil, sqlast.Star("c")), engine.Options{})
	run("filtered scan", acSelect(sqlast.Eq(sqlast.ColRef{Table: "c", Column: "parentid"}, sqlast.IntLit(3)), sqlast.Col("c", "v")), engine.Options{})
	// A one-column scan's rows are windows onto the stored c.v. A literal or
	// a reordered column is no window: those rows are copies.
	stored := s.Table("AC").Rows()
	v := sqlast.Col("c", "v")
	for _, c := range []struct {
		what   string
		q      *sqlast.Query
		shares bool
	}{
		{"one-column scan", acSelect(nil, v), true},
		{"literal projection", acSelect(nil, v, sqlast.SelectItem{Expr: sqlast.StringLit("x"), As: "k"}), false},
		{"reordered projection", acSelect(nil, v, sqlast.Col("c", "id")), false},
	} {
		for i, r := range run(c.what, c.q, engine.Options{}).Rows {
			if shares := &r[0] == &stored[i][2]; shares != c.shares {
				t.Fatalf("%s: row %d shares the stored row's memory: %v, want %v", c.what, i, shares, c.shares)
			}
		}
	}
	join := &sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("c", "v"), sqlast.Col("p", "code")}, From: joinFrom, Where: joinEq}
	for _, k := range joinKinds {
		run(k.name+" join", sqlast.SingleSelect(join), k.opts)
	}
	run("union all", &sqlast.Query{Selects: []*sqlast.Select{join, join}}, engine.Options{})

	// A join that keeps one run of one side's columns returns windows onto
	// that side's stored rows: c.parentid of the child on the right, p.id of
	// the parent on the left. Appending to one copies, and the stored row's
	// next column stays as it was.
	for _, side := range []struct {
		what  string
		item  sqlast.SelectItem
		table string
		col   int
	}{
		{"right", sqlast.Col("c", "parentid"), "AC", 1},
		{"left", sqlast.Col("p", "id"), "AP", 0},
	} {
		q := sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{side.item}, From: joinFrom, Where: joinEq})
		for _, k := range joinKinds {
			what := k.name + " join, " + side.what + " window"
			row := run(what, q, k.opts).Rows[0]
			stored := s.Table(side.table).Rows()
			i := slices.IndexFunc(stored, func(r relational.Row) bool { return &r[side.col] == &row[0] })
			if i < 0 {
				t.Fatalf("%s: row 0 is no window onto a stored %s row", what, side.table)
			}
			want := stored[i].Clone()
			if grown := append(row, relational.String("appended")); &grown[0] == &row[0] || !slices.Equal(stored[i], want) {
				t.Fatalf("%s: appending to row 0 wrote into the stored row, now %v", what, stored[i])
			}
		}
	}

	// Descendants of node 1 in the chain 1 <- 2 <- ... <- 5.
	chain := buildChainStore(t)
	rec := &sqlast.Query{
		With: []sqlast.CTE{{Name: "d", Recursive: true, Body: &sqlast.Query{Selects: []*sqlast.Select{
			{
				Cols:  []sqlast.SelectItem{sqlast.Col("N", "id")},
				From:  []sqlast.FromItem{sqlast.From("N", "N")},
				Where: sqlast.Eq(sqlast.ColRef{Table: "N", Column: "parentid"}, sqlast.IntLit(1)),
			},
			{
				Cols:  []sqlast.SelectItem{sqlast.Col("N", "id")},
				From:  []sqlast.FromItem{sqlast.From("d", "d"), sqlast.From("N", "N")},
				Where: sqlast.Eq(sqlast.ColRef{Table: "N", Column: "parentid"}, sqlast.ColRef{Table: "d", Column: "id"}),
			},
		}}}},
		Selects: []*sqlast.Select{{Cols: []sqlast.SelectItem{sqlast.Col("d", "id")}, From: []sqlast.FromItem{sqlast.From("d", "d")}}},
	}
	res, err := engine.Execute(context.Background(), chain, rec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertCappedRows(t, "recursive cte", res)

	cfg := workloads.DefaultXMarkConfig()
	cfg.ItemsPerContinent = 2
	comp, err := sharded.NewMem(2, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Load(workloads.XMark(), workloads.GenerateXMarkScale(cfg, 4)...); err != nil {
		t.Fatal(err)
	}
	items := sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("I", "name")}, From: []sqlast.FromItem{sqlast.From("Item", "I")}})
	if res, err = comp.Execute(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	assertCappedRows(t, "sharded merge", res)
}

// Index and hash-join maps are keyed on Value, so a value that came off the
// wire must equal the constructor's value of the same payload. Both decoders
// build through the constructors; this pins it.
func TestDecodedValuesFindIndexBuckets(t *testing.T) {
	fresh := []relational.Value{relational.Int(7), relational.String("x"), relational.Null}

	// WAL: commit rows of those values to a log, recover them, and probe
	// indexes built from constructor values.
	cols := []relational.Column{{Name: "k", Kind: relational.KindInt}, {Name: "s", Kind: relational.KindString}}
	rows := []relational.Row{{relational.Int(7), relational.String("x")}, {relational.Null, relational.Null}}
	tbl := relational.NewTable(&relational.TableSchema{Name: "T", Columns: cols})
	for _, r := range rows {
		tbl.MustInsert(r)
	}
	for _, c := range cols {
		if err := tbl.BuildIndex(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	mgr, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Store().CreateTable(&relational.TableSchema{Name: "T", Columns: cols}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Commit([]relational.TableChange{{Table: "T", Added: rows, Mutations: 1}}); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	mgr, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	decoded := mgr.Store().Table("T").Rows()
	if info.ReplayedBatches != 1 || len(decoded) != len(rows) {
		t.Fatalf("replayed %d batches into %d rows, want 1 into %d", info.ReplayedBatches, len(decoded), len(rows))
	}
	for _, r := range decoded {
		for ci, c := range cols {
			if len(tbl.AppendLookup(nil, c.Name, r[ci])) != 1 {
				t.Errorf("wal-decoded %v misses its %s index bucket", r[ci], c.Name)
			}
		}
	}

	// fakedb: literal and bound values land in the buckets constructor
	// values probe.
	db := fakedb.New()
	conn := sql.OpenDB(db.Connector())
	defer conn.Close()
	for _, stmt := range []string{
		`CREATE TABLE T (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)`,
		`CREATE INDEX i_k ON T (k)`,
		`CREATE INDEX i_s ON T (s)`,
		`INSERT INTO T (id, k, s) VALUES (1, 7, 'x'), (2, NULL, NULL)`,
	} {
		if _, err := conn.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := conn.Exec(`INSERT INTO T (id, k, s) VALUES (?, ?, ?)`, 3, 7, "x"); err != nil {
		t.Fatal(err)
	}
	ft := db.Store().Table("T")
	for i, col := range []string{"k", "s"} {
		if n := len(ft.AppendLookup(nil, col, fresh[i])); n != 2 {
			t.Errorf("fakedb %s index: %v finds %d rows, want 2", col, fresh[i], n)
		}
		if n := len(ft.AppendLookup(nil, col, relational.Null)); n != 1 {
			t.Errorf("fakedb %s index: NULL finds %d rows, want 1", col, n)
		}
	}
	if row, ok := ft.LookupPK(relational.Int(3)); !ok || row[2] != relational.String("x") {
		t.Errorf("fakedb primary key probe: %v, %v", row, ok)
	}
}

// TestOneShotExecuteAllocs pins the allocations of running a query once,
// compiling it included, as a write resolving a bound plan does: a filtered
// one-table scan and a two-table join, each a fresh query every run. Binding
// each FROM item with a heap frame and ordering joins in fresh slices took
// 22 and 42.
func TestOneShotExecuteAllocs(t *testing.T) {
	s := relational.NewStore()
	if _, err := shred.ShredAll(workloads.XMark(), s, shred.Options{}, workloads.GenerateXMark(workloads.DefaultXMarkConfig())); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		query func() *sqlast.Query
		max   float64
	}{
		{"scan", func() *sqlast.Query {
			return sqlast.SingleSelect(&sqlast.Select{
				Cols:  []sqlast.SelectItem{sqlast.Col("I", "id")},
				From:  []sqlast.FromItem{sqlast.From("Item", "I")},
				Where: sqlast.Eq(sqlast.ColRef{Table: "I", Column: "name"}, sqlast.StringLit("x")),
			})
		}, 20},
		{"join", func() *sqlast.Query {
			return sqlast.SingleSelect(&sqlast.Select{
				Cols: []sqlast.SelectItem{sqlast.Col("IC", "id")},
				From: []sqlast.FromItem{sqlast.From("Item", "I"), sqlast.From("InCat", "IC")},
				Where: sqlast.Conj(sqlast.Eq(sqlast.ColRef{Table: "IC", Column: "parentid"}, sqlast.ColRef{Table: "I", Column: "id"}),
					sqlast.Eq(sqlast.ColRef{Table: "IC", Column: "category"}, sqlast.StringLit("x"))),
			})
		}, 35},
	} {
		qs := make([]*sqlast.Query, 30)
		for i := range qs {
			qs[i] = c.query()
		}
		n := 0
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := engine.Execute(context.Background(), s, qs[n], engine.Options{}); err != nil {
				t.Fatal(err)
			}
			n++
		})
		t.Logf("%s: %.0f allocations per one-shot Execute", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: a one-shot Execute allocates %.0f times, want at most %.0f", c.name, allocs, c.max)
		}
	}
}
