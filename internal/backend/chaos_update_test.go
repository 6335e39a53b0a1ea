package backend_test

import (
	"context"
	"database/sql"
	"strings"
	"testing"

	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/integrity"
	"xmlsql/internal/plancache"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/update"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// The mutation-batch chaos suite: the same batch runs against a faulting
// fakedb backend across many seeded fault schedules, with no retries
// anywhere. Whenever Apply fails — the fault landed during target
// resolution, the pre-apply audit's fetches, or mid-batch inside the DML
// transaction — the store must come out byte-identical to its pre-batch
// snapshot and a subsequent audit of the batch's would-be neighborhood must
// report clean. Whenever the DML commits — whether or not a fault then cuts
// the post-apply audit short — Apply returns the batch's result and the
// store must be byte-identical to a fault-free in-memory reference that
// applied the same batch: the differential property, extended from queries
// to writes.

// chaosBatch is the update workload: two inserts bracketing a delete, so a
// mid-batch fault can strand any mix of insert and delete statements if the
// transaction fails to roll back.
func chaosBatch() update.Batch {
	return update.Batch{Muts: []update.Mutation{
		{Op: update.OpInsert, Path: "/Site/Regions/Africa/Item",
			XML: "<InCategory><Category>chaos-a</Category></InCategory>"},
		{Op: update.OpDelete, Path: "/Site/Regions/Asia/Item"},
		{Op: update.OpInsert, Path: "/Site/Regions/Europe/Item",
			XML: "<InCategory><Category>chaos-b</Category></InCategory>"},
	}}
}

func chaosDoc() (*schema.Schema, *xmltree.Document) {
	return workloads.XMark(), workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 6, Seed: 42,
	})
}

// memReference applies the batch on a fault-free in-memory instance and
// returns the pre-batch dump, post-batch dump, and the batch's footprint.
func memReference(t *testing.T, s *schema.Schema, doc *xmltree.Document, b update.Batch) (pre, post string, touched integrity.Touched) {
	t.Helper()
	mem := backend.NewMem()
	if err := mem.EnsureSchema(s); err != nil {
		t.Fatalf("mem EnsureSchema: %v", err)
	}
	if _, err := mem.Load(s, doc); err != nil {
		t.Fatalf("mem Load: %v", err)
	}
	pre = mem.Store().Dump()
	a, err := update.ForStore(s, mem.Store(), update.Options{})
	if err != nil {
		t.Fatalf("ForStore: %v", err)
	}
	res, err := a.Apply(context.Background(), b)
	if err != nil {
		t.Fatalf("reference Apply: %v", err)
	}
	if !res.Audit.Clean() {
		t.Fatalf("reference audit dirty: %v", res.Audit)
	}
	return pre, mem.Store().Dump(), res.Touched
}

func TestChaosUpdateBatchAtomicUnderFaults(t *testing.T) {
	ctx := context.Background()
	s, doc := chaosDoc()
	batch := chaosBatch()
	refPre, refPost, touched := memReference(t, s, doc, batch)

	var faulted, midDML, postAudit, applied int
	for seed := int64(0); seed < 48; seed++ {
		inst := fakedb.New()
		db := backend.NewDB(sql.OpenDB(inst.Connector()), sqlast.DialectSQLite)
		if err := db.EnsureSchema(s); err != nil {
			t.Fatalf("db EnsureSchema: %v", err)
		}
		if _, err := db.Load(s, doc); err != nil {
			t.Fatalf("db Load: %v", err)
		}
		if pre := inst.Store().Dump(); pre != refPre {
			t.Fatalf("seed %d: fakedb and mem disagree before the batch:\nfakedb:\n%s\nmem:\n%s", seed, pre, refPre)
		}
		probe, err := integrity.NewSourceProbe(db, s)
		if err != nil {
			t.Fatalf("NewSourceProbe: %v", err)
		}
		a, err := update.New(s, db, probe, db, plancache.Translator(s), update.Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}

		inst.SetFaults(fakedb.FaultConfig{Seed: seed, ExecErrorRate: 0.02, RowErrorRate: 0.02})
		res, err := a.Apply(ctx, batch)
		inst.ClearFaults()

		if err != nil {
			faulted++
			if strings.Contains(err.Error(), "update: apply:") {
				midDML++ // the fault landed inside the DML transaction
			}
			if got := inst.Store().Dump(); got != refPre {
				t.Fatalf("seed %d: faulted batch (%v) left the store changed:\ngot:\n%s\nwant pre-batch:\n%s", seed, err, got, refPre)
			}
			// The neighborhood the batch would have touched audits clean on
			// the rolled-back store — no half-applied tuples to quarantine.
			rep, aerr := integrity.AuditIncrementalOpts(ctx, probe, s, touched, integrity.Options{})
			if aerr != nil {
				t.Fatalf("seed %d: post-fault incremental audit: %v", seed, aerr)
			}
			if !rep.Clean() {
				t.Fatalf("seed %d: post-fault incremental audit dirty: %v", seed, rep)
			}
		} else if res.AuditErr != nil {
			// The fault cut the post-apply audit short: the batch is
			// committed, and the store holds exactly its effects.
			postAudit++
			if got := inst.Store().Dump(); got != refPost {
				t.Fatalf("seed %d: committed batch whose audit faulted (%v) diverges from the fault-free mem reference:\ngot:\n%s\nwant:\n%s", seed, res.AuditErr, got, refPost)
			}
		} else {
			applied++
			if !res.Audit.Clean() {
				t.Fatalf("seed %d: applied batch's audit dirty: %v", seed, res.Audit)
			}
			if got := inst.Store().Dump(); got != refPost {
				t.Fatalf("seed %d: applied batch diverges from the fault-free mem reference:\ngot:\n%s\nwant:\n%s", seed, got, refPost)
			}
		}
		db.Close()
	}

	if faulted == 0 || applied == 0 || postAudit == 0 {
		t.Fatalf("vacuous schedule: %d faulted, %d post-audit faults, %d applied — every path must be exercised", faulted, postAudit, applied)
	}
	if midDML == 0 {
		t.Fatal("no fault ever landed inside the DML transaction; mid-batch rollback went untested")
	}
	t.Logf("chaos updates: %d faulted (%d mid-DML), %d post-audit faults, %d applied clean", faulted, midDML, postAudit, applied)
}

// TestChaosMemUpdateRollsBackMidBatch is the in-memory face of batch
// atomicity: a statement list that fails partway through (the second
// statement names a table the store does not have) must leave the store
// byte-identical — the undo log rolls back the insert the first statement
// already applied.
func TestChaosMemUpdateRollsBackMidBatch(t *testing.T) {
	s, doc := chaosDoc()
	mem := backend.NewMem()
	if err := mem.EnsureSchema(s); err != nil {
		t.Fatalf("EnsureSchema: %v", err)
	}
	if _, err := mem.Load(s, doc); err != nil {
		t.Fatalf("Load: %v", err)
	}
	pre := mem.Store().Dump()

	stmts := []sqlast.DMLStmt{
		&sqlast.InsertStmt{Table: "InCat", Columns: []string{schema.IDColumn, schema.ParentIDColumn, "Category"},
			Rows: [][]sqlast.Lit{{sqlast.IntLit(999001), sqlast.IntLit(1), sqlast.StringLit("stranded")}}},
		&sqlast.InsertStmt{Table: "NoSuchRelation", Columns: []string{schema.IDColumn},
			Rows: [][]sqlast.Lit{{sqlast.IntLit(999002)}}},
	}
	if err := mem.ApplyDML(context.Background(), stmts); err == nil {
		t.Fatal("mid-batch failure must surface as an error")
	}
	if got := mem.Store().Dump(); got != pre {
		t.Fatalf("store changed after failed mid-batch apply:\ngot:\n%s\nwant:\n%s", got, pre)
	}
}
