package sharded_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql"
	"xmlsql/internal/sharded"
	"xmlsql/internal/workloads"
)

// newDiffPlanners builds two planners over the same logical xmark instance:
// one on a single Mem store, one on an n-shard composite.
func newDiffPlanners(t *testing.T, n int) (*xmlsql.Planner, *xmlsql.Planner, *sharded.Sharded) {
	t.Helper()
	w := diffWorkloads()[0]

	single := xmlsql.NewMemBackend()
	if _, err := single.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	sp := xmlsql.NewPlannerWith(w.schema, xmlsql.PlannerConfig{Backend: single})

	c, err := sharded.NewMem(n, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	cp := xmlsql.NewPlannerWith(w.schema, xmlsql.PlannerConfig{Backend: c})
	return sp, cp, c
}

// TestShardedPostUpdateDifferential drives the same mutation batches through
// a single-store planner and a sharded planner and requires identical reads
// afterwards — including the ids minted for inserted subtrees, which pins
// the routed DML application and fresh-id registration end to end. The
// delete path matches one element in every document, so the batch splits
// across shards; the insert targets one document, so it routes to one.
func TestShardedPostUpdateDifferential(t *testing.T) {
	ctx := context.Background()
	queries := []string{workloads.QueryQ1, workloads.QueryQ2}
	batches := []xmlsql.UpdateBatch{
		// Cross-document delete: "//Item[name=...]" matches the same-named
		// item in each of the 6 documents.
		{Muts: []xmlsql.UpdateMutation{{Op: xmlsql.UpdateDelete, Path: "//Item[name='item-As-25']"}}},
		// Insert new subtrees under every matching item (again one per doc).
		{Muts: []xmlsql.UpdateMutation{{
			Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-0']",
			XML: "<InCategory><Category>categoryX</Category></InCategory>",
		}}},
		// Replace: delete + insert under one parent.
		{Muts: []xmlsql.UpdateMutation{{
			Op: xmlsql.UpdateReplace, Path: "//Item[name='item-Eu-70']",
			XML: "<Item><name>item-Eu-70</name><InCategory><Category>categoryY</Category></InCategory></Item>",
		}}},
		// A mixed batch.
		{Muts: []xmlsql.UpdateMutation{
			{Op: xmlsql.UpdateDelete, Path: "//Item[name='item-No-85']"},
			{Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-1']",
				XML: "<InCategory><Category>categoryZ</Category></InCategory>"},
		}},
	}

	for _, n := range []int{2, 4} {
		sp, cp, _ := newDiffPlanners(t, n)
		for bi, b := range batches {
			sres, serr := sp.Update(ctx, b)
			cres, cerr := cp.Update(ctx, b)
			if (serr == nil) != (cerr == nil) {
				t.Fatalf("n=%d batch %d: single err=%v, sharded err=%v", n, bi, serr, cerr)
			}
			if serr != nil {
				continue
			}
			if sres.Stmts != cres.Stmts {
				t.Errorf("n=%d batch %d: statement counts differ: %d vs %d", n, bi, sres.Stmts, cres.Stmts)
			}
			if !sres.Audit.Clean() || !cres.Audit.Clean() {
				t.Errorf("n=%d batch %d: post-apply audit not clean (single %v, sharded %v)",
					n, bi, sres.Audit.Clean(), cres.Audit.Clean())
			}
			for _, query := range queries {
				want, err := sp.Exec(ctx, query)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cp.Exec(ctx, query)
				if err != nil {
					t.Fatal(err)
				}
				if !want.MultisetEqual(got) {
					t.Errorf("n=%d after batch %d, %s: sharded read diverges:\n%s",
						n, bi, query, want.MultisetDiff(got))
				}
			}
		}
	}
}

// TestShardedUpdateRejectionChangesNothing mirrors the applier contract on
// the sharded composite: an invalid batch is rejected before any shard
// writes.
func TestShardedUpdateRejectionChangesNothing(t *testing.T) {
	ctx := context.Background()
	sp, cp, _ := newDiffPlanners(t, 4)
	bad := xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-0']",
		XML: "<NoSuchElement/>",
	}}}
	if _, err := cp.Update(ctx, bad); err == nil {
		t.Fatal("expected rejection")
	}
	want, err := sp.Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.MultisetEqual(got) {
		t.Fatal("rejected batch mutated the sharded instance")
	}
}

// TestShardedTopologyInPlanCacheKeys: two planners sharing nothing but
// config must still key plans by topology (defensive — translations are
// backend-independent today, but the key must already distinguish them).
func TestShardedTopologyNames(t *testing.T) {
	c, err := sharded.NewMem(4, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Name(); got != "sharded(4xmem)" {
		t.Fatalf("Name() = %q", got)
	}
	if got := c.Topology(); !strings.Contains(got, "4xmem") {
		t.Fatalf("Topology() = %q", got)
	}
}
