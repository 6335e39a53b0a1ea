package engine_test

import (
	"context"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

func TestNotEqualAndNullSemantics(t *testing.T) {
	s := buildStore(t)
	// kind <> 1 keeps kind=2 but drops kind=NULL (SQL three-valued logic).
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols:  []sqlast.SelectItem{sqlast.Col("P", "id")},
		From:  []sqlast.FromItem{sqlast.From("P", "P")},
		Where: sqlast.Cmp{Op: sqlast.OpNe, Left: sqlast.ColRef{Table: "P", Column: "kind"}, Right: sqlast.IntLit(1)},
	})
	res := mustRun(t, s, q)
	if res.Len() != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Errorf("kind <> 1 returned %d rows", res.Len())
	}
	// The predicate-extension form: kind <> 1 OR kind IS NULL keeps both.
	q = sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("P", "id")},
		From: []sqlast.FromItem{sqlast.From("P", "P")},
		Where: sqlast.Disj(
			sqlast.Cmp{Op: sqlast.OpNe, Left: sqlast.ColRef{Table: "P", Column: "kind"}, Right: sqlast.IntLit(1)},
			sqlast.IsNull{Left: sqlast.ColRef{Table: "P", Column: "kind"}},
		),
	})
	if res := mustRun(t, s, q); res.Len() != 2 {
		t.Errorf("kind <> 1 OR IS NULL returned %d rows, want 2", res.Len())
	}
}

func TestUnionArityMismatch(t *testing.T) {
	s := buildStore(t)
	q := &sqlast.Query{Selects: []*sqlast.Select{
		{Cols: []sqlast.SelectItem{sqlast.Col("C", "v")}, From: []sqlast.FromItem{sqlast.From("C", "C")}},
		{Cols: []sqlast.SelectItem{sqlast.Col("C", "v"), sqlast.Col("C", "id")}, From: []sqlast.FromItem{sqlast.From("C", "C")}},
	}}
	if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err == nil {
		t.Error("union arity mismatch accepted")
	}
}

func TestDuplicateCTEName(t *testing.T) {
	s := buildStore(t)
	body := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Star("C")},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
	})
	q := &sqlast.Query{
		With: []sqlast.CTE{{Name: "x", Body: body}, {Name: "x", Body: body}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("x", "v")},
			From: []sqlast.FromItem{sqlast.From("x", "x")},
		}},
	}
	if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err == nil {
		t.Error("duplicate cte accepted")
	}
}

func TestCTENameScopedToQuery(t *testing.T) {
	s := buildStore(t)
	body := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Star("C")},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
	})
	q := &sqlast.Query{
		With: []sqlast.CTE{{Name: "scoped", Body: body}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("scoped", "v")},
			From: []sqlast.FromItem{sqlast.From("scoped", "scoped")},
		}},
	}
	if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// The CTE must not leak into subsequent executions.
	leak := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("scoped", "v")},
		From: []sqlast.FromItem{sqlast.From("scoped", "scoped")},
	})
	if _, err := engine.Execute(context.Background(), s, leak, engine.Options{}); err == nil {
		t.Error("cte leaked across executions")
	}
}

func TestEmptyFromRejected(t *testing.T) {
	s := buildStore(t)
	if _, err := engine.Execute(context.Background(), s, sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{{Expr: sqlast.IntLit(1), As: "x"}},
	}), engine.Options{}); err == nil {
		t.Error("empty FROM accepted")
	}
}

func TestInPredicate(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("C", "C")},
		Where: sqlast.In{
			Left: sqlast.ColRef{Table: "C", Column: "v"},
			List: []sqlast.Lit{sqlast.StringLit("a"), sqlast.StringLit("d")},
		},
	})
	res := mustRun(t, s, q)
	if got := res.Strings(); len(got) != 2 || got[0] != "a" || got[1] != "d" {
		t.Errorf("IN returned %v", got)
	}
}

func TestEmptyQueryProducesEmptyResult(t *testing.T) {
	s := buildStore(t)
	res, err := engine.Execute(context.Background(), s, &sqlast.Query{}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("empty query returned %d rows", res.Len())
	}
}

func TestRecursiveCTEBoundOnCyclicData(t *testing.T) {
	// Cyclic parent links would make the fixpoint diverge; the engine must
	// stop at MaxRecursionRounds with an error instead of hanging.
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
	tbl.MustInsert(relational.Row{relational.Int(1), relational.Int(2)})
	tbl.MustInsert(relational.Row{relational.Int(2), relational.Int(1)})
	q := &sqlast.Query{
		With: []sqlast.CTE{{
			Name:      "d",
			Recursive: true,
			Body: &sqlast.Query{Selects: []*sqlast.Select{
				{
					Cols:  []sqlast.SelectItem{sqlast.Col("N", "id")},
					From:  []sqlast.FromItem{sqlast.From("N", "N")},
					Where: sqlast.Eq(sqlast.ColRef{Table: "N", Column: "id"}, sqlast.IntLit(1)),
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
	if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err == nil {
		t.Error("divergent recursion not bounded")
	}
}

func TestIndexJoinMatchesHashJoin(t *testing.T) {
	s := buildStore(t)
	if err := s.BuildJoinIndexes("parentid"); err != nil {
		t.Fatal(err)
	}
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v"), sqlast.Col("P", "kind")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"},
			sqlast.ColRef{Table: "P", Column: "id"}),
	})
	indexed, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := engine.Execute(context.Background(), s, q, engine.Options{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !indexed.MultisetEqual(plain) {
		t.Errorf("indexed join differs from hash join:\n%s", indexed.MultisetDiff(plain))
	}
	if indexed.Len() != 3 {
		t.Errorf("indexed join returned %d rows", indexed.Len())
	}
}

func TestIndexJoinSkippedWithLocalFilter(t *testing.T) {
	// A filtered right side must not use the (unfiltered) index path.
	s := buildStore(t)
	if err := s.BuildJoinIndexes("parentid"); err != nil {
		t.Fatal(err)
	}
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "v"}, sqlast.StringLit("a")),
		),
	})
	res := mustRun(t, s, q)
	if res.Len() != 1 || res.Strings()[0] != "a" {
		t.Errorf("filtered indexed query returned %v", res.Strings())
	}
}

// TestPrimaryKeyJoinProbesIndex joins children to their parents on the
// parent's primary key, with no other index built: the join probes the key,
// so Work.Scanned counts the children alone, as an indexless run does not.
func TestPrimaryKeyJoinProbesIndex(t *testing.T) {
	s := buildStore(t)
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v"), sqlast.Col("P", "kind")},
		From: []sqlast.FromItem{sqlast.From("C", "C"), sqlast.From("P", "P")},
		Where: sqlast.Eq(sqlast.ColRef{Table: "P", Column: "id"},
			sqlast.ColRef{Table: "C", Column: "parentid"}),
	})
	probed := mustRun(t, s, q)
	scanned, err := engine.Execute(context.Background(), s, q, engine.Options{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !probed.MultisetEqual(scanned) || probed.Len() != 3 {
		t.Fatalf("key probe answered %d rows, the hash join %d:\n%s", probed.Len(), scanned.Len(), probed.MultisetDiff(scanned))
	}
	if probed.Work.Scanned != 4 || scanned.Work.Scanned != 7 {
		t.Errorf("Scanned %d with the key probe and %d without, want 4 (C) and 7 (C and P)", probed.Work.Scanned, scanned.Work.Scanned)
	}
}

// TestPlanRecompilesOnAnotherLayout runs a query compiled on one store on a
// store whose P has its columns in another order. The run recompiles for
// that layout instead of reading the first plan's offsets, and the plan
// memoised on the query stays the first store's.
func TestPlanRecompilesOnAnotherLayout(t *testing.T) {
	first := buildStore(t)
	other := relational.NewStore()
	p, err := other.CreateTable(&relational.TableSchema{
		Name: "P",
		Columns: []relational.Column{
			{Name: "kind", Kind: relational.KindInt},
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first.Table("P").Rows() {
		p.MustInsert(relational.Row{r[2], r[0], r[1]})
	}
	c, err := other.CreateTable(first.Table("C").Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range first.Table("C").Rows() {
		c.MustInsert(r)
	}
	q := sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("C", "v"), sqlast.Col("P", "kind")},
		From: []sqlast.FromItem{sqlast.From("P", "P"), sqlast.From("C", "C")},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "C", Column: "parentid"}, sqlast.ColRef{Table: "P", Column: "id"}),
			sqlast.Eq(sqlast.ColRef{Table: "P", Column: "kind"}, sqlast.IntLit(1)),
		),
	})
	want := mustRun(t, first, q)
	plan := q.Compiled()
	if plan == nil {
		t.Fatal("the first run memoised no plan")
	}
	for i := 0; i < 2; i++ {
		if got := mustRun(t, other, q); !got.MultisetEqual(want) || want.Len() != 2 {
			t.Fatalf("run %d on the other layout:\n%s", i, got.MultisetDiff(want))
		}
		if q.Compiled() != plan {
			t.Fatalf("run %d on the other layout replaced the memoised plan", i)
		}
	}
	if got := mustRun(t, first, q); !got.MultisetEqual(want) {
		t.Fatalf("the first store after the other:\n%s", got.MultisetDiff(want))
	}
}
