package xmlsql_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql"
)

const testSchema = `
schema shop
root shop

node shop  label=Shop   rel=Shop
node toys  label=Toys
node books label=Books
node titem label=Item   rel=Item
node bitem label=Item   rel=Item
node tname label=Name   col=name
node bname label=Name   col=name

edge shop -> toys
edge shop -> books
edge toys -> titem [pc=1]
edge books -> bitem [pc=2]
edge titem -> tname
edge bitem -> bname
`

const testDoc = `
<Shop>
  <Toys>
    <Item><Name>ball</Name></Item>
    <Item><Name>kite</Name></Item>
  </Toys>
  <Books>
    <Item><Name>iliad</Name></Item>
  </Books>
</Shop>
`

func setup(t *testing.T) (*xmlsql.Schema, *xmlsql.Store) {
	t.Helper()
	s, err := xmlsql.ParseSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlsql.ParseDocumentString(testDoc)
	if err != nil {
		t.Fatal(err)
	}
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		t.Fatal(err)
	}
	return s, store
}

func TestEndToEndEval(t *testing.T) {
	s, store := setup(t)
	res, err := xmlsql.Eval(s, store, "//Item/Name")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	if len(got) != 3 || got[0] != "ball" || got[1] != "iliad" || got[2] != "kite" {
		t.Errorf("got %v", got)
	}
}

func TestTranslationsAgree(t *testing.T) {
	s, store := setup(t)
	for _, query := range []string{"//Item/Name", "/Shop/Toys/Item/Name", "//Name", "//Item"} {
		q := xmlsql.MustParseQuery(query)
		naive, err := xmlsql.TranslateNaive(s, q)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := xmlsql.Translate(s, q)
		if err != nil {
			t.Fatal(err)
		}
		nres, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !nres.MultisetEqual(pres) {
			t.Errorf("%s: translations disagree", query)
		}
	}
}

func TestPrunedIsSimpler(t *testing.T) {
	s, _ := setup(t)
	q := xmlsql.MustParseQuery("//Item/Name")
	naive, _ := xmlsql.TranslateNaive(s, q)
	pruned, _ := xmlsql.Translate(s, q)
	if pruned.Query.Shape().Joins >= naive.Shape().Joins {
		t.Errorf("pruned %v not simpler than naive %v", pruned.Query.Shape(), naive.Shape())
	}
	if len(pruned.Classes) == 0 {
		t.Error("pruning diagnostics empty")
	}
}

func TestRoundTripAPI(t *testing.T) {
	s, store := setup(t)
	docs, err := xmlsql.Reconstruct(s, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("reconstructed %d documents", len(docs))
	}
	if err := xmlsql.CheckLossless(s, store); err != nil {
		t.Error(err)
	}
}

func TestEdgeMappingAPI(t *testing.T) {
	s, err := xmlsql.ParseSchema(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	es, err := xmlsql.EdgeMapping(s)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmlsql.ParseDocumentString(testDoc)
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(es, store, doc); err != nil {
		t.Fatal(err)
	}
	if store.Table("Edge") == nil {
		t.Fatal("no Edge table")
	}
	res, err := xmlsql.Eval(es, store, "//Item/Name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("Edge eval returned %d rows", res.Len())
	}
}

func TestBuilderAPI(t *testing.T) {
	s, err := xmlsql.NewSchemaBuilder("mini").
		Node("r", "r").
		Root("r").
		Build()
	if err != nil {
		t.Fatalf("minimal schema: %v", err)
	}
	if s.RootNode().Label != "r" {
		t.Error("builder root wrong")
	}
}

func TestPathIDAPI(t *testing.T) {
	s, _ := setup(t)
	g, err := xmlsql.PathID(s, xmlsql.MustParseQuery("//Item"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Empty() || len(g.Accepts()) != 2 {
		t.Errorf("PathID accepts = %d, want 2", len(g.Accepts()))
	}
}

func TestEmptyQueryResult(t *testing.T) {
	s, store := setup(t)
	res, err := xmlsql.Eval(s, store, "/Shop/Nothing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("expected no rows, got %d", res.Len())
	}
}

func TestSQLRendering(t *testing.T) {
	s, _ := setup(t)
	pruned, err := xmlsql.Translate(s, xmlsql.MustParseQuery("/Shop/Toys/Item/Name"))
	if err != nil {
		t.Fatal(err)
	}
	sql := pruned.Query.SQL()
	if !strings.Contains(sql, "pc = 1") {
		t.Errorf("expected pc = 1 selection:\n%s", sql)
	}
	if strings.Contains(sql, "Shop") {
		t.Errorf("pruned query should not join Shop:\n%s", sql)
	}
}
