package translate_test

import (
	"context"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// TestChoosePlanKeepsPruned pins the first half of the rule: whenever a
// pruned translation exists it serves, unfactored, whatever the baseline.
func TestChoosePlanKeepsPruned(t *testing.T) {
	s := workloads.XMark()
	for _, q := range []string{workloads.QueryQ1, workloads.QueryQ2, "//Item/name", "/Site"} {
		g := buildCP(t, s, q)
		naive, err := translate.Naive(g)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.Translate(g)
		if err != nil || pr.Fallback {
			t.Fatalf("%s: no pruned translation (err %v)", q, err)
		}
		d := translate.ChoosePlan(naive, pr.Query, s, nil)
		if !d.UsePruned || d.Factored || d.Query != pr.Query || d.Reason != translate.ReasonPruned {
			t.Fatalf("%s: decision %s (reason %q), want the pruned plan itself", q, d.KnobKey(), d.Reason)
		}
	}
}

// ruleCase is one branch-heavy baseline the factoring rewrite targets.
type ruleCase struct {
	name   string
	query  string
	schema *schema.Schema
	doc    *xmltree.Document
}

func edgeOf(t *testing.T, s *schema.Schema) *schema.Schema {
	t.Helper()
	e, err := shred.EdgeSchemaFor(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestChoosePlanFactorsBaseline pins the second half of the rule on the four
// shared-work cases: with no pruned translation the baseline serves with the
// shared-prefix rewrite applied, and the rewritten plan returns exactly the
// baseline's multiset.
func TestChoosePlanFactorsBaseline(t *testing.T) {
	xmCfg := workloads.XMarkConfig{ItemsPerContinent: 6, CategoriesPerItem: 2, NumCategories: 10, Seed: 5}
	cases := []ruleCase{
		{"xmark", workloads.QueryQ1, workloads.XMark(), workloads.GenerateXMark(xmCfg)},
		{"s2-edge", "//s/t1", edgeOf(t, workloads.S2()), workloads.GenerateS2(6, 5)},
		{"xmarkfull-edge", workloads.QueryQ8, edgeOf(t, workloads.XMarkFull()), workloads.GenerateXMarkFull(xmCfg)},
		{"xmarkauctions-edge", "//ItemRef", edgeOf(t, workloads.XMarkAuctions()),
			workloads.GenerateXMarkAuctions(workloads.XMarkAuctionsConfig{
				ItemsPerContinent: 3, People: 5, OpenAuctions: 5, BiddersPerAuction: 2, ClosedAuctions: 3, Seed: 5,
			})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive, err := translate.Naive(buildCP(t, c.schema, c.query))
			if err != nil {
				t.Fatal(err)
			}
			d := translate.ChoosePlan(naive, nil, c.schema, nil)
			if d.UsePruned || !d.Factored || d.Reason != translate.ReasonFallback {
				t.Fatalf("decision %s (reason %q), want the factored baseline", d.KnobKey(), d.Reason)
			}
			store := relational.NewStore()
			if _, err := shred.ShredAll(c.schema, store, shred.Options{}, c.doc); err != nil {
				t.Fatal(err)
			}
			want := execute(t, store, naive)
			got := execute(t, store, d.Query)
			if want.Len() == 0 {
				t.Fatal("baseline returned no rows; the case proves nothing")
			}
			if !want.MultisetEqual(got) {
				t.Fatalf("factored baseline differs:\n%s", want.MultisetDiff(got))
			}
		})
	}
}

// TestChoosePlanUnfactorableBaseline checks that a baseline the rewrite
// cannot change serves as it is, reported unfactored.
func TestChoosePlanUnfactorableBaseline(t *testing.T) {
	s := workloads.XMark()
	naive, err := translate.Naive(buildCP(t, s, "/Site"))
	if err != nil {
		t.Fatal(err)
	}
	d := translate.ChoosePlan(naive, nil, s, nil)
	if d.UsePruned || d.Factored || d.Query != naive {
		t.Fatalf("decision %s, want the baseline itself", d.KnobKey())
	}
}

func execute(t *testing.T, store *relational.Store, q *sqlast.Query) *engine.Result {
	t.Helper()
	res, err := engine.Execute(context.Background(), store, q, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
