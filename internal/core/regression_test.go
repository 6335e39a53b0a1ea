package core

import (
	"context"
	"strings"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/xmltree"
)

func buildRepro() *schema.Schema {
	b := schema.NewBuilder("repro")
	b.Node("n1", "d", schema.Rel("R1"))
	b.Node("n2", "sd")
	b.Node("n3", "b", schema.Rel("R2"))
	b.Node("n4", "sc")
	b.Node("n5", "a", schema.Rel("R2"), schema.Col("val"))
	b.Node("n6", "d", schema.Rel("R1"), schema.Col("val"))
	b.Node("n7", "d", schema.Rel("R3"))
	b.Node("n8", "c", schema.Rel("R3"), schema.Col("val"))
	b.Node("n9", "c", schema.Rel("R2"))
	b.Node("n10", "e", schema.Rel("R2"))
	b.Node("n11", "b", schema.Col("val"))
	b.Node("n12", "d", schema.Col("val2"))
	b.Node("n13", "c", schema.Col("val3"))
	b.Node("n14", "se")
	b.Node("n15", "c", schema.Rel("R2"), schema.Col("val"))
	b.Node("n16", "c", schema.Rel("R3"))
	b.Node("n17", "d", schema.Col("val"))
	b.Node("n18", "c", schema.Col("val2"))
	b.Node("n19", "a", schema.Col("val3"))
	b.Node("n20", "d", schema.Rel("R4"), schema.Col("val"))
	b.Root("n1")
	b.Edge("n1", "n2")
	b.EdgeCondInt("n2", "n3", "pc", 1)
	b.EdgeCondInt("n2", "n9", "pc", 2)
	b.Edge("n2", "n20")
	b.Edge("n3", "n4")
	b.Edge("n3", "n7")
	b.Edge("n4", "n5")
	b.Edge("n4", "n6")
	b.Edge("n7", "n8")
	b.EdgeCondInt("n9", "n10", "pc", 1)
	b.Edge("n9", "n14")
	b.Edge("n9", "n16")
	b.Edge("n10", "n11")
	b.Edge("n10", "n12")
	b.Edge("n10", "n13")
	b.EdgeCondInt("n14", "n15", "pc", 2)
	b.Edge("n15", "n6")
	b.Edge("n16", "n17")
	b.Edge("n16", "n18")
	b.Edge("n16", "n19")
	return b.MustBuild()
}

// TestUnannotatedEntryNormalization is the regression test for a bug found
// by the randomized stress hunt (docgen seed 2616): growing a suffix region
// can leave an *unannotated* structural node as a region boundary (here the
// "se" node above the shared "d" leaf); the SQL generator must push such
// entries down to the next tuple nodes, turning the traversed edge
// conditions into lead conditions, instead of failing with "inline node has
// 0 derivations".
func TestUnannotatedEntryNormalization(t *testing.T) {
	s := buildRepro()
	g, err := pathid.Build(s, pathexpr.MustParse("/d//d"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TranslateOpts(g, Options{NoFallback: true})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if res.Query == nil || len(res.Query.Selects) == 0 {
		t.Fatal("no query generated")
	}
	// The shared-node region must reference the pc=2 lead condition pushed
	// down from the structural entry.
	if !strings.Contains(res.Query.SQL(), "pc = 2") {
		t.Errorf("pushed-down lead condition missing:\n%s", res.Query.SQL())
	}
}

// TestPredicateChildAxisIsDirect is the regression test for a second
// stress-hunt find (docgen seed 6448): "[a='v']" is a child-axis test, so a
// value leaf nested under an unannotated structural node — whose text lands
// in the same tuple column — must NOT satisfy the predicate. The translation
// must treat such nodes as unable to satisfy it.
func TestPredicateChildAxisIsDirect(t *testing.T) {
	s := schema.NewBuilder("childaxis").
		Node("r", "r", schema.Rel("R0")).
		Node("d1", "d", schema.Rel("R1")).
		Node("s", "ss").
		Node("a1", "a", schema.Col("val")). // grandchild of d via structural ss
		Node("d2", "d", schema.Rel("R1")).
		Node("a2", "a", schema.Col("val")). // direct child of d2
		Root("r").
		Edge("r", "d1").
		Edge("d1", "s").
		Edge("s", "a1").
		Edge("r", "d2").
		Edge("d2", "a2").
		MustBuild()
	doc, err := xmltree.ParseString(
		`<r><d><ss><a>v</a></ss></d><d><a>v</a></d></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Only the second d (direct a child) satisfies //d[a='v'].
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatal(err)
	}
	q := pathexpr.MustParse("//d[a='v']")
	wantVals, err := shred.EvalReferenceAll(results, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantVals) != 1 {
		t.Fatalf("reference found %d matches, want 1", len(wantVals))
	}
	// Both d nodes share (R1, val), but d1's val is fed by a structural
	// *grandchild*: a column selection cannot distinguish the two sources,
	// so the translation must REJECT the query rather than return wrong
	// rows (which both the naive and pruned SQL would).
	if _, err := pathid.Build(s, q); err == nil {
		t.Fatal("polluted predicate column accepted; translation would be unsound")
	}
	// On a clean mapping — each d stores its direct a child in its own
	// relation's column — the same query translates and is correct.
	clean := schema.NewBuilder("childaxis2").
		Node("r", "r", schema.Rel("R0")).
		Node("d1", "d", schema.Rel("R1")).
		Node("a1", "a", schema.Col("val")).
		Node("d2", "d", schema.Rel("R2")).
		Node("a2", "a", schema.Col("val")).
		Root("r").
		Edge("r", "d1").
		Edge("d1", "a1").
		Edge("r", "d2").
		Edge("d2", "a2").
		MustBuild()
	cdoc, err := xmltree.ParseString(`<r><d><a>v</a></d><d><a>x</a></d></r>`)
	if err != nil {
		t.Fatal(err)
	}
	cstore := relational.NewStore()
	if _, err := shred.ShredAll(clean, cstore, shred.Options{}, cdoc); err != nil {
		t.Fatal(err)
	}
	g, err := pathid.Build(clean, q)
	if err != nil {
		t.Fatal(err)
	}
	for name, translateFn := range map[string]func() (*sqlast.Query, error){
		"naive": func() (*sqlast.Query, error) { return translate.Naive(g) },
		"pruned": func() (*sqlast.Query, error) {
			r, err := TranslateOpts(g, Options{})
			if err != nil {
				return nil, err
			}
			return r.Query, nil
		},
	} {
		sqlq, err := translateFn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := engine.Execute(context.Background(), cstore, sqlq, engine.Options{})
		if err != nil {
			t.Fatalf("%s exec: %v", name, err)
		}
		if res.Len() != 1 {
			t.Errorf("%s returned %d rows, want 1:\n%s", name, res.Len(), sqlq.SQL())
		}
	}
}
