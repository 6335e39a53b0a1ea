package backend_test

import (
	"context"
	"reflect"
	"testing"

	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/workloads"
)

// TestCollectStatsProbeMatchesMem checks that counting rows with probe
// queries gives the row counts the in-memory store's tables hold, on the
// in-memory backend itself, on a database backend and on a sharded
// composite, whose probes scatter and add up across shards.
func TestCollectStatsProbeMatchesMem(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	docs := workloads.GenerateXMarkScale(workloads.XMarkConfig{ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 5, Seed: 3}, 3)
	mem := backend.NewMem()
	db := backend.NewDB(fakedb.Open(), sqlast.DialectSQLite)
	defer db.Close()
	comp, err := sharded.NewMem(2, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	for _, b := range []backend.Backend{mem, db, comp} {
		if err := b.EnsureSchema(s); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Load(s, docs...); err != nil {
			t.Fatal(err)
		}
	}
	want := stats.CollectStore(mem.Store())
	if want.TotalRows == 0 {
		t.Fatal("empty instance")
	}
	for _, b := range []backend.Backend{mem, db, comp} {
		got, err := backend.CollectStats(ctx, b, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: probed counts %v (total %d), table lengths %v (total %d)", b.Name(), got.Relations, got.TotalRows, want.Relations, want.TotalRows)
		}
	}
}
