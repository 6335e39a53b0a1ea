package server_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlsql"
	"xmlsql/internal/server"
	"xmlsql/internal/workloads"
)

// durableShardedConfig returns a 4-shard durable xmark tenant over dir whose
// first boot partitions a 6-document deterministic xmark instance, so every
// shard of the 4-way partition owns at least one document and path-targeted
// updates split across shards.
func durableShardedConfig(name, dir string) server.TenantConfig {
	return server.TenantConfig{
		Name:    name,
		Schema:  workloads.XMark(),
		DataDir: dir,
		Shards:  4,
		LoadBackend: func(b xmlsql.Backend) error {
			docs := workloads.GenerateXMarkScale(workloads.XMarkConfig{
				ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 5, Seed: 11,
			}, 6)
			_, err := b.Load(workloads.XMark(), docs...)
			return err
		},
	}
}

// TestDurableShardedTenantLifecycle is the crash/recover differential for a
// document-partitioned durable tenant: first boot partitions the load across
// per-shard logs under DataDir/shard-<k>, an acknowledged update that touches
// several shards is logged per shard, and a reboot replays every shard's
// suffix, re-verifies integrity through the routing probe, and serves reads
// identical to a volatile single-store tenant given the same history.
func TestDurableShardedTenantLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	ten, err := srv.AddTenant(durableShardedConfig("auctions", dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := ten.RecoveryState(); got != server.RecoveryRecovered {
		t.Fatalf("first boot recovery state = %q, want recovered", got)
	}
	if got := len(ten.WALs()); got != 4 {
		t.Fatalf("tenant has %d WALs, want 4", got)
	}
	for k := 0; k < 4; k++ {
		if _, err := os.Stat(filepath.Join(dir, "shard-"+string(rune('0'+k)))); err != nil {
			t.Fatalf("shard %d data dir missing: %v", k, err)
		}
	}

	// The same-named item occurs in every document, so this batch routes DML
	// to several shards and every touched shard logs its slice.
	batch := xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
		Op: xmlsql.UpdateInsert, Path: "//Item[name='item-Af-0']",
		XML: "<InCategory><Category>durable-sharded</Category></InCategory>",
	}}}
	if res, err := ten.Planner().Update(ctx, batch); err != nil || !res.Audit.Clean() {
		t.Fatalf("durable sharded update: %v (clean=%v)", err, res != nil && res.Audit.Clean())
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Reboot on the same directory: every shard has a snapshot, so
	// LoadBackend must not run, the router is adopted from the recovered
	// stores, and the logged batch slices replay.
	srv2 := server.New(server.Config{Logf: func(string, ...any) {}})
	cfg := durableShardedConfig("auctions", dir)
	cfg.LoadBackend = func(xmlsql.Backend) error {
		t.Error("LoadBackend ran on a reboot with snapshots on disk")
		return nil
	}
	ten2, err := srv2.AddTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(ctx)
	ri := ten2.RecoveryInfo()
	if ri == nil || !ri.SnapshotLoaded || ri.ReplayedBatches == 0 || !ri.TouchedComplete {
		t.Fatalf("reboot RecoveryInfo = %+v, want snapshots + replayed batches with complete footprint", ri)
	}
	if got := ten2.RecoveryState(); got != server.RecoveryRecovered {
		t.Fatalf("reboot recovery state = %q, want recovered", got)
	}
	if got := ten2.Planner().TrustState(); got != xmlsql.TrustVerified {
		t.Fatalf("post-replay trust = %v, want verified", got)
	}

	// Differential against a volatile single-store tenant given the same
	// load + update history.
	ref := xmlsql.NewPlannerWith(workloads.XMark(), xmlsql.PlannerConfig{})
	docs := workloads.GenerateXMarkScale(workloads.XMarkConfig{
		ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 5, Seed: 11,
	}, 6)
	if _, err := ref.Backend().Load(workloads.XMark(), docs...); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Update(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{workloads.QueryQ1, "//Item/InCategory/Category"} {
		want, err := ref.Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ten2.Planner().Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !want.MultisetEqual(got) {
			t.Errorf("recovered sharded read diverges on %s:\n%s", q, want.MultisetDiff(got))
		}
	}
}

// TestDurableShardedInconsistentDirsRefused wipes one shard's data directory
// between boots: the tenant must refuse to open rather than silently serve a
// partition with a missing slice.
func TestDurableShardedInconsistentDirsRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	if _, err := srv.AddTenant(durableShardedConfig("auctions", dir)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard-2")); err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(server.Config{Logf: func(string, ...any) {}})
	_, err := srv2.AddTenant(durableShardedConfig("auctions", dir))
	if err == nil || !strings.Contains(err.Error(), "inconsistent shard data dirs") {
		t.Fatalf("AddTenant with a wiped shard dir: err = %v", err)
	}
	srv2.Shutdown(ctx)
}

// TestVolatileShardedTenant pins the non-durable sharded path: Shards alone
// builds an in-memory composite, LoadBackend populates it, and per-shard
// engine counters fold into the tenant's /stats engine section.
func TestVolatileShardedTenant(t *testing.T) {
	ctx := context.Background()
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	cfg := durableShardedConfig("auctions", "")
	cfg.DataDir = ""
	ten, err := srv.AddTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	if got := ten.RecoveryState(); got != server.RecoveryVolatile {
		t.Fatalf("recovery state = %q, want volatile", got)
	}
	if ten.WAL() != nil {
		t.Fatal("volatile sharded tenant has a WAL")
	}
	res, err := ten.Planner().Exec(ctx, workloads.QueryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("volatile sharded tenant served no rows")
	}
}

// TestShardsBackendMutuallyExclusive pins the config contract.
func TestShardsBackendMutuallyExclusive(t *testing.T) {
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	cfg := durableShardedConfig("auctions", "")
	cfg.DataDir = ""
	cfg.Backend = xmlsql.NewMemBackend()
	if _, err := srv.AddTenant(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("AddTenant with Shards+Backend: err = %v", err)
	}
}
