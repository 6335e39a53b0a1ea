package shred_test

import (
	"context"
	"testing"

	"xmlsql/internal/docgen"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// TestPropertyP2 checks the defining equation of the "lossless from XML"
// constraint (§3.2, property P2) directly on shredded instances: for every
// relational column R.C,
//
//	select R.C from R  ≡  ⋃ { RtoL(l) : l ∈ LeafNodes(R.C) }
//
// under multiset semantics. This is the fact the whole pruning algorithm
// rests on ("all the root-to-leaf paths combined together correspond to a
// scan of the column R.C", §4.1).
//
// The paper implicitly assumes each relation's tuples are homogeneous in
// which columns they store. When a relation is shared by nodes that store
// *different* value columns (Figure 5's R3 with C1 for x and C2 for y), the
// literal scan additionally returns NULL rows for tuples that never store
// into C; those correspond to no element value. The check therefore compares
// the equation on non-NULL rows — exactly the value occurrences — which is
// also why the pruning algorithm must reason about such shared relations
// through conflicts rather than assume scan ≡ union blindly.
func TestPropertyP2(t *testing.T) {
	type wl struct {
		name string
		s    *schema.Schema
		doc  *xmltree.Document
	}
	wls := []wl{
		{"xmark", workloads.XMark(), workloads.GenerateXMark(workloads.DefaultXMarkConfig())},
		{"adex", workloads.ADEX(), workloads.GenerateADEX(workloads.DefaultADEXConfig())},
		{"s1", workloads.S1(), workloads.GenerateS1(10, 2)},
		{"s2", workloads.S2(), workloads.GenerateS2(8, 2)},
		{"auctions", workloads.XMarkAuctions(), workloads.GenerateXMarkAuctions(workloads.DefaultXMarkAuctionsConfig())},
	}
	for seed := int64(0); seed < 10; seed++ {
		g := docgen.New(seed, docgen.DefaultConfig())
		s := g.Schema()
		wls = append(wls, wl{name: s.Name, s: s, doc: g.Document(s)})
	}

	for _, w := range wls {
		t.Run(w.name, func(t *testing.T) {
			store := relational.NewStore()
			if _, err := shred.ShredAll(w.s, store, shred.Options{}, w.doc); err != nil {
				t.Fatalf("shred: %v", err)
			}
			checkP2(t, w.s, store)
		})
	}
}

func checkP2(t *testing.T, s *schema.Schema, store *relational.Store) {
	t.Helper()
	defs, err := s.DeriveRelations()
	if err != nil {
		t.Fatal(err)
	}
	for rel, def := range defs {
		// The id column participates when every R-annotated node exposes
		// its elemid (no value column hides it).
		idTotal := true
		for _, n := range s.Nodes() {
			if n.Relation == rel && n.Column != "" && n.Column != schema.IDColumn {
				idTotal = false
			}
		}
		cols := append([]relational.Column(nil), def.ValueColumns...)
		if idTotal {
			cols = append(cols, relational.Column{Name: schema.IDColumn, Kind: relational.KindInt})
		}
		for _, c := range cols {
			leaves := s.LeafNodesOfColumn(rel, c.Name)
			if len(leaves) == 0 {
				continue
			}
			// Left side: select R.C from R.
			scan := sqlast.SingleSelect(&sqlast.Select{
				Cols: []sqlast.SelectItem{sqlast.Col("R", c.Name)},
				From: []sqlast.FromItem{sqlast.From(rel, "R")},
			})
			left, err := engine.Execute(context.Background(), store, scan, engine.Options{})
			if err != nil {
				t.Fatalf("%s.%s scan: %v", rel, c.Name, err)
			}
			left = dropNullRows(left)
			// Right side: union of RtoL(l) over LeafNodes(R.C).
			right := &engine.Result{}
			for _, l := range leaves {
				q, complete, err := translate.RtoL(s, l, 3)
				if err != nil {
					t.Fatalf("RtoL(%s): %v", s.Node(l).Name, err)
				}
				if !complete {
					t.Skipf("recursive schema: RtoL enumeration incomplete at unroll 3")
				}
				res, err := engine.Execute(context.Background(), store, q, engine.Options{})
				if err != nil {
					t.Fatalf("RtoL(%s) exec: %v\n%s", s.Node(l).Name, err, q.SQL())
				}
				right.Rows = append(right.Rows, res.Rows...)
			}
			right = dropNullRows(right)
			if !left.MultisetEqual(right) {
				t.Errorf("P2 violated for %s.%s:\n%s", rel, c.Name, left.MultisetDiff(right))
			}
		}
	}
}

// dropNullRows removes rows whose single column is NULL: tuples that never
// store into the inspected column.
func dropNullRows(r *engine.Result) *engine.Result {
	out := &engine.Result{Cols: r.Cols}
	for _, row := range r.Rows {
		if len(row) == 1 && row[0].IsNull() {
			continue
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
