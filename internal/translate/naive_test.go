package translate_test

import (
	"context"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// checkNaive shreds the document, translates the query naively, executes it,
// and compares the multiset against the direct XML evaluation.
func checkNaive(t *testing.T, s *schema.Schema, doc *xmltree.Document, query string) *engine.Result {
	t.Helper()
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatalf("shred: %v", err)
	}
	q := pathexpr.MustParse(query)
	g, err := pathid.Build(s, q)
	if err != nil {
		t.Fatalf("pathid: %v", err)
	}
	sqlq, err := translate.Naive(g)
	if err != nil {
		t.Fatalf("naive translate: %v", err)
	}
	got, err := engine.Execute(context.Background(), store, sqlq, engine.Options{})
	if err != nil {
		t.Fatalf("execute:\n%s\nerror: %v", sqlq.SQL(), err)
	}
	wantVals, err := shred.EvalReferenceAll(results, q)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	want := &engine.Result{}
	for _, v := range wantVals {
		want.Rows = append(want.Rows, relational.Row{v})
	}
	if !got.MultisetEqual(want) {
		t.Errorf("query %s: naive SQL result differs from reference:\n%s\nSQL:\n%s",
			query, got.MultisetDiff(want), sqlq.SQL())
	}
	return got
}

func TestNaiveXMarkQ1(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	res := checkNaive(t, s, doc, workloads.QueryQ1)
	if res.Len() != 6*20*2 {
		t.Errorf("Q1 returned %d rows, want %d", res.Len(), 6*20*2)
	}
}

func TestNaiveXMarkQ1Shape(t *testing.T) {
	s := workloads.XMark()
	g, err := pathid.Build(s, pathexpr.MustParse(workloads.QueryQ1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Naive(g)
	if err != nil {
		t.Fatal(err)
	}
	sh := q.Shape()
	// SQ1^1 of §2: six branches (one per continent), each joining
	// Site ⋈ Item ⋈ InCat (2 joins).
	if sh.Branches != 6 || sh.Joins != 12 || sh.CTEs != 0 {
		t.Errorf("Q1 naive shape = %v, want 6 branches, 12 joins", sh)
	}
}

func TestNaiveXMarkQ2(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	res := checkNaive(t, s, doc, workloads.QueryQ2)
	if res.Len() != 20*2 {
		t.Errorf("Q2 returned %d rows, want %d", res.Len(), 20*2)
	}
}

func TestNaiveXMarkVariousQueries(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	for _, q := range []string{
		"//Category",
		"//Item",
		"//Item/name",
		"/Site/Regions/Asia/Item",
		"/Site//InCategory/Category",
		"//Regions//name",
		"/Site",
	} {
		t.Run(q, func(t *testing.T) { checkNaive(t, s, doc, q) })
	}
}

func TestNaiveNoMatch(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	res := checkNaive(t, s, doc, "/Site/Nonexistent")
	if res.Len() != 0 {
		t.Errorf("expected empty result, got %d rows", res.Len())
	}
}

func TestNaiveS1(t *testing.T) {
	s := workloads.S1()
	doc := workloads.GenerateS1(10, 3)
	for _, q := range []string{"//x", "//y", "/a/b/x", "/a/c/x", "//b//x"} {
		t.Run(q, func(t *testing.T) { checkNaive(t, s, doc, q) })
	}
}

func TestNaiveS2DAG(t *testing.T) {
	s := workloads.S2()
	doc := workloads.GenerateS2(6, 9)
	for _, q := range []string{"//s/t1", "//t2", "/root/m1/s/t1", "//s", "//m2//t2"} {
		t.Run(q, func(t *testing.T) { checkNaive(t, s, doc, q) })
	}
}

func TestNaiveS3Recursive(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	for _, q := range []string{
		workloads.QueryQ4,
		workloads.QueryQ5,
		workloads.QueryQ6,
		workloads.QueryQ7,
		"//E10/elemid",
		"//E9//elemid",
		"/E0/E2/E8/E9/E10/elemid",
		"//E7//E10/elemid",
	} {
		t.Run(q, func(t *testing.T) { checkNaive(t, s, doc, q) })
	}
}

func TestNaiveS3UsesRecursiveSQL(t *testing.T) {
	s := workloads.S3()
	g, err := pathid.Build(s, pathexpr.MustParse(workloads.QueryQ6))
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Naive(g)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Shape().Recursive {
		t.Errorf("Q6 over the recursive schema should produce recursive SQL, got shape %v:\n%s", q.Shape(), q.SQL())
	}
}

func TestNaiveEdgeMapping(t *testing.T) {
	base := workloads.XMark()
	es, err := shred.EdgeSchemaFor(base)
	if err != nil {
		t.Fatal(err)
	}
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	for _, q := range []string{
		workloads.QueryQ8,
		"//Category",
		"/Site/Regions/Africa/Item/name",
	} {
		t.Run(q, func(t *testing.T) { checkNaive(t, es, doc, q) })
	}
}

func TestNaiveADEX(t *testing.T) {
	s := workloads.ADEX()
	doc := workloads.GenerateADEX(workloads.DefaultADEXConfig())
	for _, q := range []string{
		workloads.QueryAdexAllPhones,
		workloads.QueryAdexAllTitles,
		workloads.QueryAdexVehicleEmails,
		workloads.QueryAdexPrices,
	} {
		t.Run(q, func(t *testing.T) { checkNaive(t, s, doc, q) })
	}
}
