package docgen_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/docgen"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
)

// TestStressEquivalence is the long-haul hunt: enable by setting
// XMLSQL_STRESS to the number of seeds per configuration.
func TestStressEquivalence(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("XMLSQL_STRESS"))
	if n <= 0 {
		t.Skip("set XMLSQL_STRESS=<seeds> to run")
	}
	cfgs := []docgen.Config{docgen.DefaultConfig(), recursiveConfig()}
	for ci, cfg := range cfgs {
		for seed := int64(1000); seed < int64(1000+n); seed++ {
			g := docgen.New(seed, cfg)
			s := g.Schema()
			doc := g.Document(s)
			store := relational.NewStore()
			results, err := shred.ShredAll(s, store, shred.Options{}, doc)
			if err != nil {
				t.Fatalf("cfg %d seed %d: shred: %v\n%s", ci, seed, err, s)
			}
			if _, err := shred.Reconstruct(s, store); err != nil {
				t.Fatalf("cfg %d seed %d: reconstruct: %v\n%s", ci, seed, err, s)
			}
			for qi := 0; qi < 6; qi++ {
				query := g.Query(s)
				if qi%2 == 1 {
					query = g.PredQuery(s)
				}
				q, err := pathexpr.Parse(query)
				if err != nil {
					t.Fatalf("cfg %d seed %d: parse %q: %v", ci, seed, query, err)
				}
				cp, err := pathid.Build(s, q)
				if err != nil {
					if q.HasPreds() {
						continue
					}
					t.Fatalf("cfg %d seed %d: pathid(%s): %v\n%s", ci, seed, query, err, s)
				}
				naive, err := translate.Naive(cp)
				if err != nil {
					t.Fatalf("cfg %d seed %d: naive(%s): %v\n%s", ci, seed, query, err, s)
				}
				pruned, err := core.Translate(cp)
				if err != nil {
					t.Fatalf("cfg %d seed %d: pruned(%s): %v\n%s", ci, seed, query, err, s)
				}
				nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
				if err != nil {
					t.Fatalf("cfg %d seed %d: exec naive(%s): %v\n%s", ci, seed, query, err, naive.SQL())
				}
				pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
				if err != nil {
					t.Fatalf("cfg %d seed %d: exec pruned(%s): %v\n%s", ci, seed, query, err, pruned.Query.SQL())
				}
				if !nres.MultisetEqual(pres) {
					t.Fatalf("cfg %d seed %d: %s disagree (fallback=%v)\nschema:\n%s\nnaive:\n%s\npruned:\n%s\ndiff:\n%s",
						ci, seed, query, pruned.Fallback, s, naive.SQL(), pruned.Query.SQL(), nres.MultisetDiff(pres))
				}
				wantVals, err := shred.EvalReferenceAll(results, q)
				if err != nil {
					t.Fatalf("cfg %d seed %d: reference(%s): %v", ci, seed, query, err)
				}
				want := &engine.Result{}
				for _, v := range wantVals {
					want.Rows = append(want.Rows, relational.Row{v})
				}
				if !pres.MultisetEqual(want) {
					t.Fatalf("cfg %d seed %d: %s vs reference (fallback=%v)\nschema:\n%s\npruned:\n%s\ndiff:\n%s",
						ci, seed, query, pruned.Fallback, s, pruned.Query.SQL(), pres.MultisetDiff(want))
				}
			}
		}
		fmt.Printf("stress cfg %d: %d seeds x 6 queries clean\n", ci, n)
	}
}
