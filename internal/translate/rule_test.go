package translate_test

import (
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
)

// TestChoosePlanKeepsPruned pins the first half of the rule: whenever a
// pruned translation exists it serves, whatever the baseline.
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
		if !d.UsePruned || d.Query != pr.Query || d.Reason != translate.ReasonPruned {
			t.Fatalf("%s: decision %s (reason %q), want the pruned plan itself", q, d.KnobKey(), d.Reason)
		}
	}
}

func edgeOf(t *testing.T, s *schema.Schema) *schema.Schema {
	t.Helper()
	e, err := shred.EdgeSchemaFor(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestChoosePlanServesBaseline pins the second half of the rule: with no
// pruned translation the decision serves the baseline pointer itself, also
// on the branch-heavy baselines whose union branches share join prefixes.
func TestChoosePlanServesBaseline(t *testing.T) {
	cases := []struct {
		name   string
		query  string
		schema *schema.Schema
	}{
		{"xmark", workloads.QueryQ1, workloads.XMark()},
		{"xmark-root", "/Site", workloads.XMark()},
		{"s2-edge", "//s/t1", edgeOf(t, workloads.S2())},
		{"xmarkfull-edge", workloads.QueryQ8, edgeOf(t, workloads.XMarkFull())},
		{"xmarkauctions-edge", "//ItemRef", edgeOf(t, workloads.XMarkAuctions())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive, err := translate.Naive(buildCP(t, c.schema, c.query))
			if err != nil {
				t.Fatal(err)
			}
			d := translate.ChoosePlan(naive, nil, c.schema, nil)
			if d.UsePruned || d.Query != naive || d.Reason != translate.ReasonFallback {
				t.Fatalf("decision %s (reason %q), want the baseline itself", d.KnobKey(), d.Reason)
			}
		})
	}
}
