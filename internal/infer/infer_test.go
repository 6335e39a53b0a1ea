package infer_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/docgen"
	"xmlsql/internal/engine"
	"xmlsql/internal/infer"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

func TestInferXMark(t *testing.T) {
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	s, err := infer.FromDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !shred.Conforms(s, doc) {
		t.Fatal("source document does not conform to inferred schema")
	}
	// A fresh document from the same generator also conforms (same shape).
	doc2 := workloads.GenerateXMark(workloads.XMarkConfig{ItemsPerContinent: 3, CategoriesPerItem: 1, NumCategories: 2, Seed: 99})
	if !shred.Conforms(s, doc2) {
		t.Error("same-shape document does not conform to inferred schema")
	}
	// The inferred mapping is tree shaped with the expected structure: the
	// root relation is Site, and name/Category become value leaves.
	if s.RootNode().Relation != "Site" {
		t.Errorf("root relation = %q", s.RootNode().Relation)
	}
	if !strings.Contains(s.String(), "col=category") || !strings.Contains(s.String(), "col=name") {
		t.Errorf("value leaves not inferred:\n%s", s)
	}
}

func TestInferredSchemaSupportsFullPipeline(t *testing.T) {
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	s, err := infer.FromDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"//Item/InCategory/Category", "/Site/Regions/Africa/Item/name", "//Category"} {
		q := pathexpr.MustParse(query)
		g, err := pathid.Build(s, q)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		naive, err := translate.Naive(g)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := core.Translate(g)
		if err != nil {
			t.Fatal(err)
		}
		nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !nres.MultisetEqual(pres) {
			t.Errorf("%s: translations disagree over inferred schema", query)
		}
		wantVals, err := shred.EvalReferenceAll(results, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantVals) != pres.Len() {
			t.Errorf("%s: %d rows, reference %d", query, pres.Len(), len(wantVals))
		}
	}
	// And the lossless round trip holds for the inferred mapping.
	if err := shred.CheckLossless(s, store); err != nil {
		t.Error(err)
	}
}

func TestInferThenEdgeScenario(t *testing.T) {
	// The §5.3 story end to end with no hand-written schema at all:
	// documents arrive, a schema is inferred, the data is stored
	// obliviously in the Edge relation, and queries still prune to short
	// self-joins.
	doc := workloads.GenerateXMarkFull(workloads.DefaultXMarkConfig())
	inferred, err := infer.FromDocuments(doc)
	if err != nil {
		t.Fatal(err)
	}
	edgeSchema, err := shred.EdgeSchemaFor(inferred)
	if err != nil {
		t.Fatal(err)
	}
	store := relational.NewStore()
	if _, err := shred.ShredAll(edgeSchema, store, shred.Options{}, doc); err != nil {
		t.Fatal(err)
	}
	g, err := pathid.Build(edgeSchema, pathexpr.MustParse(workloads.QueryQ8))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.Translate(g)
	if err != nil {
		t.Fatal(err)
	}
	if sh := pruned.Query.Shape(); sh.Branches != 1 || sh.Joins != 1 {
		t.Errorf("Q8 over inferred Edge mapping = %v, want one 2-way self-join:\n%s", sh, pruned.Query.SQL())
	}
	res, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6*20*2 {
		t.Errorf("Q8 returned %d rows, want %d", res.Len(), 6*20*2)
	}
}

func TestInferMultipleDocuments(t *testing.T) {
	// Partial documents union into one schema.
	d1, _ := xmltree.ParseString(`<r><a><x>1</x></a></r>`)
	d2, _ := xmltree.ParseString(`<r><b><y>2</y></b><a/></r>`)
	s, err := infer.FromDocuments(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !shred.Conforms(s, d1) || !shred.Conforms(s, d2) {
		t.Error("source documents must conform to the union schema")
	}
	// Node 'a' had children in d1, so it is a relation even though it is a
	// leaf occurrence in d2.
	var aRel bool
	for _, n := range s.Nodes() {
		if n.Label == "a" && n.HasRelation() {
			aRel = true
		}
	}
	if !aRel {
		t.Error("node a should have been inferred as a relation")
	}
}

func TestInferErrors(t *testing.T) {
	if _, err := infer.FromDocuments(); err == nil {
		t.Error("no documents accepted")
	}
	d1, _ := xmltree.ParseString(`<a/>`)
	d2, _ := xmltree.ParseString(`<b/>`)
	if _, err := infer.FromDocuments(d1, d2); err == nil {
		t.Error("mismatched roots accepted")
	}
}

func TestInferRoundTripsRandomDocuments(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := docgen.New(seed, docgen.DefaultConfig())
		orig := g.Schema()
		doc := g.Document(orig)
		s, err := infer.FromDocuments(doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !shred.Conforms(s, doc) {
			t.Fatalf("seed %d: document does not conform to its inferred schema", seed)
		}
		store := relational.NewStore()
		if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
			t.Fatalf("seed %d: shred under inferred schema: %v", seed, err)
		}
		docs, err := shred.Reconstruct(s, store)
		if err != nil {
			t.Fatalf("seed %d: reconstruct: %v", seed, err)
		}
		if len(docs) != 1 || !docs[0].Canonicalize().Equal(doc.Canonicalize()) {
			t.Fatalf("seed %d: inferred-schema round trip mismatch", seed)
		}
	}
}
