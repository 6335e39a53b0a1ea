//go:build !race

// Allocation budgets depend on the allocator seeing only the code under test,
// which the race detector's instrumentation breaks; CI's -race step skips
// this file and plain `go test` runs it.

package engine_test

import (
	"context"
	"database/sql"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/wal"
	"xmlsql/internal/workloads"
)

// allocStore builds AP(id, code) with nParents rows and AC(id, parentid, v)
// with childPerParent children under each parent; AC.parentid is indexed.
func allocStore(t *testing.T, nParents, childPerParent int) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	p, err := s.CreateTable(&relational.TableSchema{
		Name:       "AP",
		Columns:    []relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "code", Kind: relational.KindInt}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateTable(&relational.TableSchema{
		Name: "AC",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
			{Name: "v", Kind: relational.KindString},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for pi := 1; pi <= nParents; pi++ {
		p.MustInsert(relational.Row{relational.Int(int64(pi)), relational.Int(int64(pi % 7))})
		for ci := 0; ci < childPerParent; ci++ {
			id++
			c.MustInsert(relational.Row{relational.Int(id), relational.Int(int64(pi)), relational.String(fmt.Sprintf("v%d", id))})
		}
	}
	if err := c.BuildIndex("parentid"); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	joinEq   = sqlast.Eq(sqlast.ColRef{Table: "c", Column: "parentid"}, sqlast.ColRef{Table: "p", Column: "id"})
	joinFrom = []sqlast.FromItem{{Source: "AP", Alias: "p"}, {Source: "AC", Alias: "c"}}
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
	run := func(what string, q *sqlast.Query, opts engine.Options) {
		t.Helper()
		res, err := engine.Execute(context.Background(), s, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		assertCappedRows(t, what, res)
	}
	scan := &sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Star("c")}, From: []sqlast.FromItem{{Source: "AC", Alias: "c"}}}
	run("projection", sqlast.SingleSelect(scan), engine.Options{})
	join := &sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("c", "v"), sqlast.Col("p", "code")}, From: joinFrom, Where: joinEq}
	for _, k := range joinKinds {
		run(k.name+" join", sqlast.SingleSelect(join), k.opts)
	}
	run("union all", &sqlast.Query{Selects: []*sqlast.Select{join, join}}, engine.Options{})

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

	// WAL: encode, decode, and probe an index built from constructor values.
	tbl := relational.NewTable(&relational.TableSchema{Name: "T", Columns: []relational.Column{{Name: "k", Kind: relational.KindInt}, {Name: "s", Kind: relational.KindString}}})
	tbl.MustInsert(relational.Row{relational.Int(7), relational.String("x")})
	tbl.MustInsert(relational.Row{relational.Null, relational.Null})
	for _, col := range []string{"k", "s"} {
		if err := tbl.BuildIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	ins := &sqlast.InsertStmt{Table: "T", Columns: []string{"v"}}
	for _, v := range fresh {
		ins.Rows = append(ins.Rows, []sqlast.Lit{{Value: v}})
	}
	buf, err := wal.EncodeBatch([]sqlast.DMLStmt{ins})
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := wal.DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded := stmts[0].(*sqlast.InsertStmt).Rows
	for i, col := range []string{"k", "s", "k"} {
		if v := decoded[i][0].Value; len(tbl.AppendLookup(nil, col, v)) != 1 {
			t.Errorf("wal-decoded %v misses the %s index bucket of %v", v, col, fresh[i])
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
