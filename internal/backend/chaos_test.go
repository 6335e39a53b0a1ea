package backend_test

import (
	"context"
	"database/sql"
	"errors"
	"testing"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/xmltree"
)

// The chaos suite re-runs the differential property under injected faults:
// with the fake driver failing 30% of executions (plus mid-resultset errors),
// every execution either fails with the injected fault — surfaced to the
// caller, never absorbed — or answers row-for-row identical to the fault-free
// in-memory reference, for every workload: trees, DAGs, and recursive CTEs.
// No fault may yield a wrong or truncated answer. The injector's PRNG is
// seeded, so the fault schedule (and therefore the whole test) is
// deterministic.

// loadFaulty stands up the usual mem/db pair but keeps the fakedb instance
// handle so the test can program its fault injector.
func loadFaulty(t *testing.T, s *schema.Schema, d *sqlast.Dialect, doc *xmltree.Document) (*backend.Mem, *backend.DB, *fakedb.DB) {
	t.Helper()
	inst := fakedb.New()
	mem := backend.NewMem()
	if err := mem.EnsureSchema(s); err != nil {
		t.Fatalf("mem EnsureSchema: %v", err)
	}
	if _, err := mem.Load(s, doc); err != nil {
		t.Fatalf("mem Load: %v", err)
	}
	db := backend.NewDB(sql.OpenDB(inst.Connector()), d)
	t.Cleanup(func() { db.Close() })
	if err := db.EnsureSchema(s); err != nil {
		t.Fatalf("db EnsureSchema: %v", err)
	}
	if _, err := db.Load(s, doc); err != nil {
		t.Fatalf("db Load: %v", err)
	}
	return mem, db, inst
}

func TestChaosDifferentialUnderFaults(t *testing.T) {
	ctx := context.Background()
	var failed, answered int
	for i, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mem, db, inst := loadFaulty(t, tc.schema, sqlast.DialectSQLite, tc.doc)
			// Faults arm only now — the load above ran clean, so any divergence
			// below is the serving path's fault, not a corrupted store.
			inst.SetFaults(fakedb.FaultConfig{
				Seed:          int64(100 + i),
				ExecErrorRate: 0.3,
				RowErrorRate:  0.1,
			})
			for _, query := range tc.queries {
				for mode, q := range translations(t, tc.schema, query) {
					want, err := mem.Execute(ctx, q)
					if err != nil {
						t.Fatalf("%s %s on mem: %v", query, mode, err)
					}
					got, err := db.Execute(ctx, q)
					if err != nil {
						var injected *fakedb.InjectedError
						if !errors.As(err, &injected) {
							t.Fatalf("%s %s under 30%% faults: %v is not the injected fault", query, mode, err)
						}
						failed++
						continue
					}
					answered++
					if !want.MultisetEqual(got) {
						t.Errorf("%s %s: answer under faults diverges from fault-free mem:\n%s",
							query, mode, want.MultisetDiff(got))
					}
				}
			}
		})
	}
	if failed == 0 || answered == 0 {
		t.Fatalf("vacuous schedule: %d executions failed, %d answered — both outcomes must occur", failed, answered)
	}
	t.Logf("chaos: %d executions failed with the injected fault, %d answered exactly", failed, answered)
}

// TestDBLoadRollsBackOnMidBatchFault arms a fault schedule that lets some
// INSERT batches through and then kills one: Load must fail and the store
// must hold zero rows — not a partially-populated shred that would silently
// break losslessness on the next query.
func TestDBLoadRollsBackOnMidBatchFault(t *testing.T) {
	tc := diffCases(t)[0]
	inst := fakedb.New()
	db := backend.NewDB(sql.OpenDB(inst.Connector()), sqlast.DialectSQLite)
	t.Cleanup(func() { db.Close() })
	if err := db.EnsureSchema(tc.schema); err != nil {
		t.Fatalf("EnsureSchema: %v", err)
	}

	inst.SetFaults(fakedb.FaultConfig{Seed: 7, ExecErrorRate: 0.5})
	if _, err := db.Load(tc.schema, tc.doc); err == nil {
		inst.ClearFaults()
		t.Fatal("Load under a 50% exec fault rate should fail (seed 7 injects)")
	}
	inst.ClearFaults()
	if n := inst.Store().TotalRows(); n != 0 {
		t.Fatalf("store holds %d rows after failed load, want 0 (transaction must roll back)", n)
	}

	// The same backend recovers: a clean retry of the load fully populates.
	res, err := db.Load(tc.schema, tc.doc)
	if err != nil {
		t.Fatalf("clean reload: %v", err)
	}
	if res[0].Tuples == 0 || inst.Store().TotalRows() == 0 {
		t.Fatal("clean reload stored nothing")
	}
}

// cyclicReach builds, on any backend that will take the DDL, an instance the
// paper's acyclicity assumption forbids — a cycle — plus the reachability
// query whose fixpoint therefore diverges. It is the backend-level
// cancellation fixture: without a deadline the query would run for
// MaxRecursionRounds.
func cyclicReachQuery() *sqlast.Query {
	return &sqlast.Query{
		With: []sqlast.CTE{{
			Name:      "reach",
			Recursive: true,
			Body: &sqlast.Query{Selects: []*sqlast.Select{
				{
					Cols:  []sqlast.SelectItem{sqlast.Col("E", "dst")},
					From:  []sqlast.FromItem{sqlast.From("E", "E")},
					Where: sqlast.Eq(sqlast.ColRef{Table: "E", Column: "src"}, sqlast.IntLit(1)),
				},
				{
					Cols: []sqlast.SelectItem{sqlast.Col("E", "dst")},
					From: []sqlast.FromItem{sqlast.From("reach", "reach"), sqlast.From("E", "E")},
					Where: sqlast.Eq(
						sqlast.ColRef{Table: "E", Column: "src"},
						sqlast.ColRef{Table: "reach", Column: "dst"},
					),
				},
			}},
		}},
		Selects: []*sqlast.Select{{
			Cols: []sqlast.SelectItem{sqlast.Col("reach", "dst")},
			From: []sqlast.FromItem{sqlast.From("reach", "reach")},
		}},
	}
}

// TestBackendsCancelMidRecursiveCTE drives the diverging recursive query
// through both backends under a short deadline: each must return
// context.DeadlineExceeded promptly, proving cancellation crosses the
// Backend interface (and, for DB, the whole database/sql driver stack).
func TestBackendsCancelMidRecursiveCTE(t *testing.T) {
	// Mem: a store holding the cycle directly.
	store := relational.NewStore()
	edge, err := store.CreateTable(&relational.TableSchema{
		Name: "E",
		Columns: []relational.Column{
			{Name: "src", Kind: relational.KindInt},
			{Name: "dst", Kind: relational.KindInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 1}} {
		edge.MustInsert(relational.Row{relational.Int(e[0]), relational.Int(e[1])})
	}
	mem := backend.NewMemOn(store)

	// DB: the same cycle loaded over plain SQL text.
	raw := fakedb.Open()
	if _, err := raw.Exec(`CREATE TABLE "E" ("src" INTEGER, "dst" INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Exec(`INSERT INTO "E" ("src", "dst") VALUES (1, 2), (2, 3), (3, 1)`); err != nil {
		t.Fatal(err)
	}
	db := backend.NewDB(raw, sqlast.DialectSQLite)
	t.Cleanup(func() { db.Close() })

	for _, b := range []backend.Backend{mem, db} {
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		start := time.Now()
		_, err := b.Execute(ctx, cyclicReachQuery())
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", b.Name(), err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: cancellation took %v; not prompt", b.Name(), elapsed)
		}
	}
}
