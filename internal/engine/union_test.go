package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// wideUnion builds a UNION ALL with one branch per parent kind plus an
// unconditioned branch.
func wideUnion() *sqlast.Query {
	branch := func(kind int64) *sqlast.Select {
		return &sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
			From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
			Where: sqlast.Conj(
				sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
				sqlast.Eq(sqlast.ColRef{Table: "P", Column: "kind"}, sqlast.IntLit(kind)),
			),
		}
	}
	q := &sqlast.Query{}
	q.Selects = append(q.Selects,
		branch(1), branch(2),
		&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
			From: []sqlast.FromItem{sqlast.From("C", "C")},
		},
		branch(1), branch(2), branch(99),
	)
	return q
}

// TestUnionErrorInBranchOrder asserts that a union with several failing
// branches reports the first one in branch order.
func TestUnionErrorInBranchOrder(t *testing.T) {
	s := buildStore(t)
	bad := func(col string) *sqlast.Select {
		return &sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("C", col)},
			From: []sqlast.FromItem{sqlast.From("C", "C")},
		}
	}
	q := &sqlast.Query{Selects: []*sqlast.Select{
		bad("v"), bad("nope1"), bad("nope2"), bad("v"),
	}}
	_, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err == nil || !strings.Contains(err.Error(), "nope1") {
		t.Fatalf("err = %v, want the nope1 branch's error", err)
	}
}

// TestConcurrentExecute runs many whole queries concurrently against one
// shared store (the serving pattern); run with -race.
func TestConcurrentExecute(t *testing.T) {
	s := buildStore(t)
	if err := s.BuildJoinIndexes("parentid"); err != nil {
		t.Fatal(err)
	}
	q := wideUnion()
	want, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := engine.Execute(context.Background(), s, q, engine.Options{})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- fmt.Errorf("concurrent result diverged: %v", res.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRecursiveCTEMultiBranch checks a recursive CTE with two base and two
// recursive branches: every round evaluates both recursive branches against
// the previous round's delta, and the rows come back round by round, branch
// by branch.
func TestRecursiveCTEMultiBranch(t *testing.T) {
	s := relational.NewStore()
	edge, err := s.CreateTable(&relational.TableSchema{
		Name: "E",
		Columns: []relational.Column{
			{Name: "src", Kind: relational.KindInt},
			{Name: "dst", Kind: relational.KindInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A small DAG: chain 1->2->3->4 plus shortcut edges.
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4}} {
		edge.MustInsert(relational.Row{relational.Int(e[0]), relational.Int(e[1])})
	}
	// WITH RECURSIVE reach(n) AS (two base branches UNION ALL two recursive
	// branches) SELECT n FROM reach.
	base := func(start int64) *sqlast.Select {
		return &sqlast.Select{
			Cols:  []sqlast.SelectItem{sqlast.Col("E", "dst")},
			From:  []sqlast.FromItem{sqlast.From("E", "E")},
			Where: sqlast.Eq(sqlast.ColRef{Table: "E", Column: "src"}, sqlast.IntLit(start)),
		}
	}
	rec := &sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("E", "dst")},
		From: []sqlast.FromItem{sqlast.From("reach", "reach"), sqlast.From("E", "E")},
		Where: sqlast.Eq(
			sqlast.ColRef{Table: "E", Column: "src"},
			sqlast.ColRef{Table: "reach", Column: "dst"},
		),
	}
	q := &sqlast.Query{
		With: []sqlast.CTE{{
			Name:      "reach",
			Recursive: true,
			Body:      &sqlast.Query{Selects: []*sqlast.Select{base(1), base(2), rec, rec}},
		}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("reach", "dst")},
			From: []sqlast.FromItem{sqlast.From("reach", "reach")},
		}},
	}
	res, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{
		2, 3, 3, 4, // base branches
		3, 4, 4, 4, 3, 4, 4, 4, // round 1, once per recursive branch
		4, 4, 4, 4, // round 2
	}
	var got []int64
	for _, v := range res.Values() {
		got = append(got, v.AsInt())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reach = %v, want %v", got, want)
	}
}
