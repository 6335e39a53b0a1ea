package engine_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"xmlsql/internal/backend"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/workloads"
)

// allocStore builds AP(id, code) with nParents rows and AC(id, parentid, v)
// with childPerParent children under each parent; AC.parentid is indexed.
func allocStore(t testing.TB, nParents, childPerParent int) *relational.Store {
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

// acSelect is SELECT items FROM AC c [WHERE where].
func acSelect(where sqlast.Expr, items ...sqlast.SelectItem) *sqlast.Query {
	return sqlast.SingleSelect(&sqlast.Select{Cols: items, From: []sqlast.FromItem{{Source: "AC", Alias: "c"}}, Where: where})
}

// churn writes tbl by primary key, one round per pair of its current rows:
// it inserts a copy of a row under the key base+round, sets column col of
// the pair's first row to "updated" and deletes the second.
func churn(t *testing.T, tbl *relational.Table, col string, base int64) {
	pk, ci := tbl.Schema().ColumnIndex("id"), tbl.Schema().ColumnIndex(col)
	victims := tbl.Rows()
	for r := 0; 2*r+1 < len(victims); r++ {
		fresh := victims[r].Clone()
		fresh[pk] = relational.Int(base + int64(r))
		if err := tbl.Insert(fresh); err != nil {
			t.Error(err)
			return
		}
		set := func(row relational.Row) relational.Row {
			row[ci] = relational.String("updated")
			return row
		}
		if _, err := tbl.UpdateKeys([]relational.Value{victims[2*r][pk]}, nil, set); err != nil {
			t.Error(err)
			return
		}
		if n := tbl.DeleteKeys([]relational.Value{victims[2*r+1][pk]}, nil); n != 1 {
			t.Errorf("%s: deleted %d rows, want 1", tbl.Schema().Name, n)
			return
		}
	}
}

// TestWindowedResultsSurviveWrites: results whose rows are windows onto
// stored rows or join rows, single-store and sharded, read exactly what they
// read before while a writer inserts, updates and deletes the rows they were
// read from. Run under -race, it also checks that no write touches the
// memory of a held row.
func TestWindowedResultsSurviveWrites(t *testing.T) {
	ctx := context.Background()
	s := allocStore(t, 64, 4)
	comp, err := sharded.NewMem(2, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.DefaultXMarkConfig()
	cfg.ItemsPerContinent = 4
	if _, err := comp.Load(workloads.XMark(), workloads.GenerateXMarkScale(cfg, 4)...); err != nil {
		t.Fatal(err)
	}

	type read struct {
		what string
		exec func() (*engine.Result, error)
	}
	local := func(q *sqlast.Query) func() (*engine.Result, error) {
		return func() (*engine.Result, error) { return engine.Execute(ctx, s, q, engine.Options{}) }
	}
	reads := []read{
		{"one-column scan", local(acSelect(nil, sqlast.Col("c", "v")))},
		{"star scan", local(acSelect(nil, sqlast.Star("c")))},
		{"filtered scan", local(acSelect(sqlast.Eq(sqlast.ColRef{Table: "c", Column: "parentid"}, sqlast.IntLit(3)), sqlast.Col("c", "v")))},
		{"index join", local(sqlast.SingleSelect(&sqlast.Select{Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom, Where: joinEq}))},
		// Q2's shape: a filter, then an index join whose rows are windows
		// onto the stored child rows.
		{"filtered index join", local(sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom,
			Where: sqlast.Conj(joinEq, sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(3))),
		}))},
		// A hash join whose rows are windows onto the stored rows on its left.
		{"hash join, left window", local(sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: []sqlast.FromItem{joinFrom[1], joinFrom[0]}, Where: joinEq,
		}))},
		{"sharded scan", func() (*engine.Result, error) {
			return comp.Execute(ctx, sqlast.SingleSelect(&sqlast.Select{
				Cols: []sqlast.SelectItem{sqlast.Col("I", "name")}, From: []sqlast.FromItem{sqlast.From("Item", "I")},
			}))
		}},
		{"union all", local(&sqlast.Query{Selects: []*sqlast.Select{
			{Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: []sqlast.FromItem{{Source: "AC", Alias: "c"}}},
			{Cols: []sqlast.SelectItem{sqlast.Col("c", "v")}, From: joinFrom, Where: joinEq},
		}})},
		{"sharded Q2", func() (*engine.Result, error) {
			return comp.Execute(ctx, sqlast.SingleSelect(&sqlast.Select{
				Cols: []sqlast.SelectItem{sqlast.Col("IC", "category")},
				From: []sqlast.FromItem{sqlast.From("Item", "I"), sqlast.From("InCat", "IC")},
				Where: sqlast.Conj(
					sqlast.Eq(sqlast.ColRef{Table: "IC", Column: "parentid"}, sqlast.ColRef{Table: "I", Column: "id"}),
					sqlast.Eq(sqlast.ColRef{Table: "I", Column: "parentcode"}, sqlast.IntLit(1))),
			}))
		}},
		{"sharded index join", func() (*engine.Result, error) {
			return comp.Execute(ctx, sqlast.SingleSelect(&sqlast.Select{
				Cols:  []sqlast.SelectItem{sqlast.Col("I", "name"), sqlast.Col("IC", "category")},
				From:  []sqlast.FromItem{sqlast.From("Item", "I"), sqlast.From("InCat", "IC")},
				Where: sqlast.Eq(sqlast.ColRef{Table: "IC", Column: "parentid"}, sqlast.ColRef{Table: "I", Column: "id"}),
			}))
		}},
	}
	held := make([]*engine.Result, len(reads))
	want := make([][]relational.Row, len(reads))
	for i, r := range reads {
		res, err := r.exec()
		if err != nil {
			t.Fatalf("%s: %v", r.what, err)
		}
		held[i] = res
		for _, row := range res.Rows {
			want[i] = append(want[i], row.Clone())
		}
	}
	check := func() {
		for i, res := range held {
			if !slices.EqualFunc(res.Rows, want[i], slices.Equal) {
				t.Errorf("%s: a held result changed under writes", reads[i].what)
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(1 + len(comp.Shards()))
	go func() { defer wg.Done(); churn(t, s.Table("AC"), "v", 1<<40) }()
	for i, sh := range comp.Shards() {
		go func() { defer wg.Done(); churn(t, sh.(*backend.Mem).Store().Table("Item"), "name", int64(i+2)<<40) }()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check()
		for _, r := range reads {
			if _, err := r.exec(); err != nil {
				t.Fatalf("%s: %v", r.what, err)
			}
		}
	}
	check()
}
