package engine_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

func buildStore(t *testing.T) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	parent, err := s.CreateTable(&relational.TableSchema{
		Name: "P",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
			{Name: "kind", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	child, err := s.CreateTable(&relational.TableSchema{
		Name: "C",
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
	// P: 1 (kind 1), 2 (kind 2), 3 (kind NULL)
	parent.MustInsert(relational.Row{relational.Int(1), relational.Null, relational.Int(1)})
	parent.MustInsert(relational.Row{relational.Int(2), relational.Null, relational.Int(2)})
	parent.MustInsert(relational.Row{relational.Int(3), relational.Null, relational.Null})
	// C: children 10,11 under 1; 12 under 2; 13 orphan (parent NULL)
	child.MustInsert(relational.Row{relational.Int(10), relational.Int(1), relational.String("a")})
	child.MustInsert(relational.Row{relational.Int(11), relational.Int(1), relational.String("b")})
	child.MustInsert(relational.Row{relational.Int(12), relational.Int(2), relational.String("c")})
	child.MustInsert(relational.Row{relational.Int(13), relational.Null, relational.String("d")})
	return s
}

func mustRun(t *testing.T, s *relational.Store, q *sqlast.Query) *engine.Result {
	t.Helper()
	res, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, q.SQL())
	}
	return res
}

func TestScanWithFilter(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols:  []sqlast.SelectItem{sqlast.Col("C", "v")},
		From:  []sqlast.FromItem{sqlast.From("C", "C")},
		Where: sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.IntLit(1)),
	})
	res := mustRun(t, s, q)
	if got := res.Strings(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("got %v", got)
	}
}

func TestHashJoin(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
			sqlast.Eq(sqlast.ColRef{Table: "P", Column: "kind"}, sqlast.IntLit(1)),
		),
	})
	res := mustRun(t, s, q)
	if got := res.Strings(); len(got) != 2 || got[0] != "a" {
		t.Errorf("got %v", got)
	}
}

func TestJoinNullNeverMatches(t *testing.T) {
	s := buildStore(t)
	// Orphan child (parentid NULL) must not join any parent, including the
	// NULL-kind parent.
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"},
			sqlast.ColRef{Table: "P", Column: "id"}),
	})
	res := mustRun(t, s, q)
	if res.Len() != 3 {
		t.Errorf("join returned %d rows, want 3 (orphan excluded)", res.Len())
	}
}

// Joins keep only the columns read after them; a later join key and a
// predicate spanning the first and last alias must still find theirs.
func TestJoinsKeepColumnsReadLater(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("P", "kind"), sqlast.Col("C2", "v")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C"), sqlast.From("C", "C2")},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
			sqlast.Eq(sqlast.ColRef{Table: "C2", Column: "id"}, sqlast.ColRef{Table: "C", Column: "id"}),
			sqlast.Disj(
				sqlast.Eq(sqlast.ColRef{Table: "P", Column: "kind"}, sqlast.IntLit(2)),
				sqlast.Eq(sqlast.ColRef{Table: "C2", Column: "v"}, sqlast.StringLit("a")),
			),
		),
	})
	want := &engine.Result{Rows: []relational.Row{
		{relational.Int(1), relational.String("a")},
		{relational.Int(2), relational.String("c")},
	}}
	for _, opts := range []engine.Options{{}, {DisableIndexes: true}, {ForceNestedLoop: true}} {
		res, err := engine.Execute(context.Background(), s, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.MultisetEqual(want) {
			t.Errorf("%+v:\n%s", opts, res.MultisetDiff(want))
		}
	}
}

func TestNestedLoopMatchesHashJoin(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v"), sqlast.Col("P", "kind")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"},
			sqlast.ColRef{Table: "P", Column: "id"}),
	})
	hash, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := engine.Execute(context.Background(), s, q, engine.Options{ForceNestedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hash.MultisetEqual(nested) {
		t.Errorf("hash and nested-loop joins disagree:\n%s", hash.MultisetDiff(nested))
	}
}

func TestCartesianProduct(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("P", "id"), sqlast.Col("C", "id")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
	})
	res := mustRun(t, s, q)
	if res.Len() != 3*4 {
		t.Errorf("cartesian product returned %d rows, want 12", res.Len())
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	s := buildStore(t)
	sel := &sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
	}
	q := &sqlast.Query{Selects: []*sqlast.Select{sel, sel}}
	res := mustRun(t, s, q)
	if res.Len() != 8 {
		t.Errorf("union all returned %d rows, want 8", res.Len())
	}
}

func TestOrAcrossAliases(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
			sqlast.Disj(
				sqlast.Eq(sqlast.ColRef{Table: "P", Column: "kind"}, sqlast.IntLit(2)),
				sqlast.Eq(sqlast.ColRef{Table: "C", Column: "v"}, sqlast.StringLit("a")),
			),
		),
	})
	res := mustRun(t, s, q)
	if got := res.Strings(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("got %v", got)
	}
}

func TestStarProjection(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Star("C")},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
	})
	res := mustRun(t, s, q)
	if len(res.Cols) != 3 || res.Cols[2] != "v" {
		t.Errorf("star projection columns = %v", res.Cols)
	}
}

func TestCTE(t *testing.T) {
	s := buildStore(t)
	q := &sqlast.Query{
		With: []sqlast.CTE{{
			Name: "kids",
			Body: sqlast.SingleSelect(&sqlast.Select{
				Cols:  []sqlast.SelectItem{sqlast.Star("C")},
				From:  []sqlast.FromItem{sqlast.From("C", "C")},
				Where: sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.IntLit(1)),
			}),
		}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("K", "v")},
			From: []sqlast.FromItem{sqlast.From("kids", "K")},
		}},
	}
	res := mustRun(t, s, q)
	if res.Len() != 2 {
		t.Errorf("cte query returned %d rows, want 2", res.Len())
	}
}

// buildChainStore creates a parent-of chain encoded in one table, for
// recursion tests: 1 <- 2 <- 3 <- 4 <- 5.
func buildChainStore(t *testing.T) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	tbl, err := s.CreateTable(&relational.TableSchema{
		Name: "N",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(relational.Row{relational.Int(1), relational.Null})
	for i := int64(2); i <= 5; i++ {
		tbl.MustInsert(relational.Row{relational.Int(i), relational.Int(i - 1)})
	}
	return s
}

func TestRecursiveCTEFixpoint(t *testing.T) {
	s := buildChainStore(t)
	// All descendants of node 1 (excluding 1): with recursive d as
	// (select id from N where parentid = 1 union all
	//  select N.id from d, N where N.parentid = d.id) select id from d.
	q := &sqlast.Query{
		With: []sqlast.CTE{{
			Name:      "d",
			Recursive: true,
			Body: &sqlast.Query{Selects: []*sqlast.Select{
				{
					Cols:  []sqlast.SelectItem{sqlast.Col("N", "id")},
					From:  []sqlast.FromItem{sqlast.From("N", "N")},
					Where: sqlast.Eq(sqlast.ColRef{Table: "N", Column: "parentid"}, sqlast.IntLit(1)),
				},
				{
					Cols: []sqlast.SelectItem{sqlast.Col("N", "id")},
					From: []sqlast.FromItem{sqlast.From("d", "d"), sqlast.From("N", "N")},
					Where: sqlast.Eq(sqlast.ColRef{Table: "N", Column: "parentid"},
						sqlast.ColRef{Table: "d", Column: "id"}),
				},
			}},
		}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("d", "id")},
			From: []sqlast.FromItem{sqlast.From("d", "d")},
		}},
	}
	res := mustRun(t, s, q)
	if res.Len() != 4 {
		t.Errorf("recursion found %d descendants, want 4", res.Len())
	}
}

func TestRecursiveCTEWithoutBaseErrors(t *testing.T) {
	s := buildChainStore(t)
	q := &sqlast.Query{
		With: []sqlast.CTE{{
			Name:      "d",
			Recursive: true,
			Body: &sqlast.Query{Selects: []*sqlast.Select{{
				Cols: []sqlast.SelectItem{sqlast.Col("N", "id")},
				From: []sqlast.FromItem{sqlast.From("d", "d"), sqlast.From("N", "N")},
			}}},
		}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("d", "id")},
			From: []sqlast.FromItem{sqlast.From("d", "d")},
		}},
	}
	if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err == nil {
		t.Error("recursive CTE without base branch accepted")
	}
}

func TestErrorsOnUnknownThings(t *testing.T) {
	s := buildStore(t)
	cases := []*sqlast.Select{
		{Cols: []sqlast.SelectItem{sqlast.Col("X", "v")}, From: []sqlast.FromItem{sqlast.From("Nope", "X")}},
		{Cols: []sqlast.SelectItem{sqlast.Col("C", "nosuch")}, From: []sqlast.FromItem{sqlast.From("C", "C")}},
		{Cols: []sqlast.SelectItem{sqlast.Col("C", "v")}, From: []sqlast.FromItem{sqlast.From("C", "C"), sqlast.From("P", "C")}},
	}
	for i, sel := range cases {
		if _, err := engine.Execute(context.Background(), s, sqlast.SingleSelect(sel), engine.Options{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLiteralProjection(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{
			{Expr: sqlast.IntLit(7), As: "node"},
			sqlast.Col("C", "id"),
		},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
	})
	res := mustRun(t, s, q)
	if res.Cols[0] != "node" {
		t.Errorf("literal projection name = %q", res.Cols[0])
	}
	for _, row := range res.Rows {
		if row[0].AsInt() != 7 {
			t.Errorf("literal projection value = %v", row[0])
		}
	}
}

func TestAmbiguousBareColumn(t *testing.T) {
	s := buildStore(t)
	// "id" exists in both P and C: a bare reference must error.
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{{Expr: sqlast.ColRef{Column: "id"}}},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
	})
	_, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestResultHelpers(t *testing.T) {
	a := &engine.Result{Rows: []relational.Row{{relational.Int(1)}, {relational.Int(2)}}}
	b := &engine.Result{Rows: []relational.Row{{relational.Int(2)}, {relational.Int(1)}}}
	c := &engine.Result{Rows: []relational.Row{{relational.Int(1)}, {relational.Int(1)}}}
	if !a.MultisetEqual(b) {
		t.Error("order must not matter")
	}
	if a.MultisetEqual(c) {
		t.Error("multiplicities must matter")
	}
	if diff := a.MultisetDiff(c); !strings.Contains(diff, "only in") {
		t.Errorf("diff = %q", diff)
	}
	if rows := a.SortedRows(); rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 2 {
		t.Error("SortedRows out of order")
	}
}
