package docgen_test

import (
	"context"
	"fmt"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/docgen"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
)

// The pipeline property tests: for randomly generated mappings, documents,
// and queries, the shred/reconstruct round trip must be the identity (up to
// canonical sibling order), the lossless checker must accept, and the naive
// and pruned translations must both agree with the reference XML
// evaluation. These are the paper's correctness claims, exercised across a
// schema space far wider than the worked figures.

const propRounds = 60

func TestPropertyShredRoundTrip(t *testing.T) {
	for seed := int64(0); seed < propRounds; seed++ {
		g := docgen.New(seed, docgen.DefaultConfig())
		s := g.Schema()
		doc := g.Document(s)
		store := relational.NewStore()
		if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
			t.Fatalf("seed %d: shred: %v\nschema:\n%s", seed, err, s)
		}
		docs, err := shred.Reconstruct(s, store)
		if err != nil {
			t.Fatalf("seed %d: reconstruct: %v\nschema:\n%s", seed, err, s)
		}
		if len(docs) != 1 || !docs[0].Canonicalize().Equal(doc.Canonicalize()) {
			t.Fatalf("seed %d: round trip mismatch\nschema:\n%s\noriginal:\n%s\nreconstructed:\n%s",
				seed, s, doc.Canonicalize(), docs[0].Canonicalize())
		}
		if err := shred.CheckLossless(s, store); err != nil {
			t.Fatalf("seed %d: lossless check: %v", seed, err)
		}
	}
}

func TestPropertyTranslationEquivalence(t *testing.T) {
	queriesPerSchema := 5
	for seed := int64(0); seed < propRounds; seed++ {
		g := docgen.New(seed, docgen.DefaultConfig())
		s := g.Schema()
		doc := g.Document(s)
		store := relational.NewStore()
		results, err := shred.ShredAll(s, store, shred.Options{}, doc)
		if err != nil {
			t.Fatalf("seed %d: shred: %v", seed, err)
		}
		for qi := 0; qi < queriesPerSchema; qi++ {
			query := g.Query(s)
			if qi >= queriesPerSchema/2 {
				query = g.PredQuery(s)
			}
			t.Run(fmt.Sprintf("seed%d/%s", seed, query), func(t *testing.T) {
				q, err := pathexpr.Parse(query)
				if err != nil {
					t.Fatalf("generated invalid query %q: %v", query, err)
				}
				cp, err := pathid.Build(s, q)
				if err != nil {
					if q.HasPreds() {
						// Predicates the translation fragment excludes
						// (children in their own relations etc.) are
						// rejected cleanly; that is correct behaviour.
						t.Skipf("predicate query rejected: %v", err)
					}
					t.Fatalf("pathid: %v\nschema:\n%s", err, s)
				}
				naive, err := translate.Naive(cp)
				if err != nil {
					t.Fatalf("naive: %v\nschema:\n%s", err, s)
				}
				pruned, err := core.Translate(cp)
				if err != nil {
					t.Fatalf("pruned: %v\nschema:\n%s", err, s)
				}
				nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
				if err != nil {
					t.Fatalf("naive exec: %v\nSQL:\n%s", err, naive.SQL())
				}
				pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
				if err != nil {
					t.Fatalf("pruned exec: %v\nSQL:\n%s", err, pruned.Query.SQL())
				}
				if !nres.MultisetEqual(pres) {
					t.Fatalf("naive and pruned disagree (fallback=%v):\n%s\nschema:\n%s\nnaive:\n%s\npruned:\n%s",
						pruned.Fallback, nres.MultisetDiff(pres), s, naive.SQL(), pruned.Query.SQL())
				}
				wantVals, err := shred.EvalReferenceAll(results, q)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				want := &engine.Result{}
				for _, v := range wantVals {
					want.Rows = append(want.Rows, relational.Row{v})
				}
				if !pres.MultisetEqual(want) {
					t.Fatalf("pruned differs from reference:\n%s\nschema:\n%s\npruned:\n%s",
						pres.MultisetDiff(want), s, pruned.Query.SQL())
				}
			})
		}
	}
}

// recursiveConfig turns on back-edges so the generated schemas exercise the
// DAG/recursive pruning path (§5) rather than only the tree case.
func recursiveConfig() docgen.Config {
	cfg := docgen.DefaultConfig()
	cfg.BackEdges = 3
	cfg.MaxRecursionDepth = 10
	return cfg
}

func TestPropertyRecursiveSchemas(t *testing.T) {
	recursiveSeen := 0
	for seed := int64(100); seed < 100+propRounds; seed++ {
		g := docgen.New(seed, recursiveConfig())
		s := g.Schema()
		if s.Classify() != schema.ShapeTree {
			recursiveSeen++
		}
		doc := g.Document(s)
		store := relational.NewStore()
		results, err := shred.ShredAll(s, store, shred.Options{}, doc)
		if err != nil {
			t.Fatalf("seed %d: shred: %v\nschema:\n%s", seed, err, s)
		}
		docs, err := shred.Reconstruct(s, store)
		if err != nil {
			t.Fatalf("seed %d: reconstruct: %v\nschema:\n%s", seed, err, s)
		}
		if len(docs) != 1 || !docs[0].Canonicalize().Equal(doc.Canonicalize()) {
			t.Fatalf("seed %d: round trip mismatch\nschema:\n%s", seed, s)
		}
		for qi := 0; qi < 4; qi++ {
			query := g.Query(s)
			q, err := pathexpr.Parse(query)
			if err != nil {
				t.Fatalf("seed %d: bad query %q: %v", seed, query, err)
			}
			cp, err := pathid.Build(s, q)
			if err != nil {
				t.Fatalf("seed %d: pathid(%s): %v\nschema:\n%s", seed, query, err, s)
			}
			naive, err := translate.Naive(cp)
			if err != nil {
				t.Fatalf("seed %d: naive(%s): %v\nschema:\n%s", seed, query, err, s)
			}
			pruned, err := core.Translate(cp)
			if err != nil {
				t.Fatalf("seed %d: pruned(%s): %v\nschema:\n%s", seed, query, err, s)
			}
			nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
			if err != nil {
				t.Fatalf("seed %d: naive exec(%s): %v\n%s", seed, query, err, naive.SQL())
			}
			pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
			if err != nil {
				t.Fatalf("seed %d: pruned exec(%s): %v\n%s", seed, query, err, pruned.Query.SQL())
			}
			if !nres.MultisetEqual(pres) {
				t.Fatalf("seed %d: %s: naive and pruned disagree (fallback=%v):\n%s\nschema:\n%s\nnaive:\n%s\npruned:\n%s",
					seed, query, pruned.Fallback, nres.MultisetDiff(pres), s, naive.SQL(), pruned.Query.SQL())
			}
			wantVals, err := shred.EvalReferenceAll(results, q)
			if err != nil {
				t.Fatalf("seed %d: reference(%s): %v", seed, query, err)
			}
			want := &engine.Result{}
			for _, v := range wantVals {
				want.Rows = append(want.Rows, relational.Row{v})
			}
			if !pres.MultisetEqual(want) {
				t.Fatalf("seed %d: %s: pruned differs from reference (fallback=%v):\n%s\nschema:\n%s\npruned:\n%s",
					seed, query, pruned.Fallback, pres.MultisetDiff(want), s, pruned.Query.SQL())
			}
		}
	}
	if recursiveSeen < propRounds/4 {
		t.Errorf("only %d of %d schemas were non-tree; back-edge generation too weak", recursiveSeen, propRounds)
	}
}

func TestPropertySchemaDSLRoundTrip(t *testing.T) {
	for seed := int64(0); seed < propRounds; seed++ {
		g := docgen.New(seed, docgen.DefaultConfig())
		s := g.Schema()
		reparsed, err := schema.Parse(s.String())
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, s)
		}
		if reparsed.String() != s.String() {
			t.Fatalf("seed %d: DSL round trip mismatch:\n%s\nvs\n%s", seed, s, reparsed)
		}
	}
}
