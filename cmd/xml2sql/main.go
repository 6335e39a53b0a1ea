// Command xml2sql translates a simple path expression into SQL over an
// annotated XML-to-Relational mapping, printing both the baseline
// translation of [9] and the paper's lossless-constraint-aware translation
// side by side.
//
// Usage:
//
//	xml2sql -schema mapping.dsl -query '//Item/InCategory/Category'
//	xml2sql -workload xmark -query '//Item/InCategory/Category'
//	xml2sql -workload xmarkfull-edge -query '/Site//Item/InCategory/Category'
//	xml2sql -workload xmark -dialect sqlite -ddl
//	xml2sql -workload xmark -dialect postgres -ddl -load > setup.sql
//	xml2sql -workload s3 -query '//t4' -execute -timeout 5s -max-rows 1000000
//	xml2sql -workload xmark -stats
//	xml2sql -workload xmark -query '//Item/InCategory/Category' -explain -execute
//
// Built-in workloads: xmark, xmarkfull, s1, s2, s3, adex, plus an "-edge"
// suffix for the schema-oblivious Edge mapping of any of them.
//
// With -ddl and/or -load the command emits an executable SQL script instead
// of (or in addition to) a translation: -ddl prints the CREATE TABLE /
// CREATE INDEX statements for the mapping's shredded relations, and -load
// generates a workload document, shreds it, and prints the literal INSERT
// statements. Feed both to any engine speaking the chosen -dialect and the
// translated queries run there unchanged.
//
// -stats dumps a generated instance's per-relation row counts as JSON;
// -explain prints the plan rule's decision for the query: the pruned
// translation serves unless pruning fell back, and an untrusted instance
// (safe mode) gets the baseline.
//
// -update applies a JSON mutation batch to a generated workload instance and
// prints the planned DML, the batch's footprint, and the incremental audit
// verdict — e.g.
//
//	xml2sql -workload xmark -update \
//	  '[{"op":"insert","path":"//Item","xml":"<InCategory><Category>x</Category></InCategory>"}]'
//
// With -data-dir the -update path is durable: the instance lives in a
// write-ahead-logged data directory (first run shreds and checkpoints it,
// later runs recover snapshot + log), and the batch is fsynced before it is
// acknowledged — run the command twice and the second run replays the first
// run's batch. -fsync widens the group-commit window (default: fsync per
// commit).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/cli"
	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/integrity"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/plancache"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sharded"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/translate"
	"xmlsql/internal/update"
	"xmlsql/internal/wal"
)

func main() {
	schemaFile := flag.String("schema", "", "schema DSL file defining the mapping")
	workload := flag.String("workload", "", "built-in workload schema (xmark, xmarkfull, s1, s2, s3, adex; add -edge for Edge storage)")
	query := flag.String("query", "", "simple path expression, e.g. //Item/InCategory/Category")
	showCP := flag.Bool("cross-product", false, "also print the PathId cross-product graph")
	showClasses := flag.Bool("classes", false, "also print the pruned PathSet's combinability classes")
	execute := flag.Bool("execute", false, "generate a workload document, execute both translations, verify, and time them (built-in workloads only)")
	dialectName := flag.String("dialect", "default", "SQL dialect for all emitted text (default, sqlite, postgres)")
	emitDDL := flag.Bool("ddl", false, "print the CREATE TABLE / CREATE INDEX script for the mapping's shredded relations")
	emitLoad := flag.Bool("load", false, "generate a workload document, shred it, and print the INSERT script (built-in workloads only)")
	timeout := flag.Duration("timeout", 0, "deadline for each -execute run (e.g. 5s); 0 means none")
	maxRows := flag.Int("max-rows", 0, "abort -execute runs that materialize more than this many rows; 0 means unlimited")
	maxCTEIter := flag.Int("max-cte-iterations", 0, "abort -execute runs whose recursive CTE exceeds this many rounds; 0 means the engine default")
	audit := flag.Bool("audit", false, "generate a workload document, shred it, and audit the instance against the lossless-from-XML constraint (built-in workloads only)")
	corrupt := flag.Bool("corrupt", false, "with -audit: inject an orphan tuple first, demonstrating detection and safe-mode degradation")
	showStats := flag.Bool("stats", false, "generate a workload document, shred it, and dump its per-relation row counts as JSON (built-in workloads only)")
	explain := flag.Bool("explain", false, "print the plan rule's decision for the query: the plan served on a trusted instance and in safe mode, and why")
	updateJSON := flag.String("update", "", `apply a JSON mutation batch ('[{"op":"insert","path":"//Item","xml":"<...>"}]'; ops: insert, delete, replace) to a generated workload instance, printing the planned DML and the incremental audit verdict (built-in workloads only)`)
	dataDir := flag.String("data-dir", "", "durable data directory for -update: recover the instance from its write-ahead log (first run initializes it) and fsync the batch before acknowledging")
	fsyncEvery := flag.Duration("fsync", 0, "group-commit window for the -data-dir log; unset or 0 fsyncs every commit")
	shards := flag.Int("shards", 1, "with -execute: document-partition the instance across this many shard stores and run both translations through the scatter-gather composite, verifying against a single store")
	scale := flag.Int("scale", 1, "with -execute: generate this many workload documents (scale multiplies document count)")
	flag.Parse()

	if err := validateFlags(*timeout, *maxRows, *maxCTEIter, *dataDir, *fsyncEvery); err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
		os.Exit(2)
	}
	if (*shards > 1 || *scale > 1) && !*execute {
		fmt.Fprintln(os.Stderr, "xml2sql: -shards and -scale only apply to the -execute path")
		os.Exit(2)
	}
	if *dataDir != "" && *updateJSON == "" {
		fmt.Fprintln(os.Stderr, "xml2sql: -data-dir only applies to the -update path")
		os.Exit(2)
	}
	if *fsyncEvery != 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "xml2sql: -fsync requires -data-dir")
		os.Exit(2)
	}
	if *explain && *query == "" {
		fmt.Fprintln(os.Stderr, "xml2sql: -explain requires a -query to explain")
		flag.Usage()
		os.Exit(2)
	}
	if *query == "" && !*emitDDL && !*emitLoad && !*audit && !*showStats && *updateJSON == "" {
		fmt.Fprintln(os.Stderr, "xml2sql: -query is required (unless emitting scripts with -ddl/-load)")
		flag.Usage()
		os.Exit(2)
	}
	dialect, err := sqlast.DialectByName(*dialectName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
		os.Exit(2)
	}
	s, err := cli.LoadSchema(*schemaFile, *workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
		os.Exit(1)
	}
	if *emitDDL {
		ddl, err := backend.DDL(s, dialect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: ddl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- shredded relations of schema %s (%s dialect)\n%s", s.Name, dialect.Name(), ddl)
	}
	if *emitLoad {
		if err := emitLoadScript(s, *workload, dialect); err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: load: %v\n", err)
			os.Exit(1)
		}
	}
	if *audit {
		if err := runAudit(s, *workload, *corrupt); err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: audit: %v\n", err)
			os.Exit(1)
		}
	}
	if *showStats {
		if err := runStats(s, *workload); err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: stats: %v\n", err)
			os.Exit(1)
		}
	}
	if *updateJSON != "" {
		if err := runUpdate(s, *workload, *updateJSON, dialect, *dataDir, *fsyncEvery); err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: update: %v\n", err)
			os.Exit(1)
		}
	}
	if *query == "" {
		return
	}

	q, err := pathexpr.Parse(*query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
		os.Exit(1)
	}
	g, err := pathid.Build(s, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
		os.Exit(1)
	}
	if *showCP {
		fmt.Println("-- cross-product schema (PathId stage):")
		fmt.Print(g.String())
		fmt.Println()
	}

	naive, err := translate.Naive(g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: baseline translation: %v\n", err)
		os.Exit(1)
	}
	pruned, err := core.Translate(g)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xml2sql: lossless translation: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("-- query: %s over schema %s (%s)\n\n", q, s.Name, s.Classify())
	fmt.Printf("-- baseline translation [9] (%s):\n%s\n\n", naive.Shape(), naive.SQLFor(dialect))
	label := "exploiting the lossless-from-XML constraint"
	if pruned.Fallback {
		label = "pruning not applicable; baseline retained"
	}
	fmt.Printf("-- %s (%s):\n%s\n", label, pruned.Query.Shape(), pruned.Query.SQLFor(dialect))
	if *explain {
		if err := printExplain(s, *query); err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: explain: %v\n", err)
			os.Exit(1)
		}
	}
	if *execute {
		opts := engine.Options{MaxRows: *maxRows, MaxCTEIterations: *maxCTEIter}
		if *shards > 1 || *scale > 1 {
			err = runSharded(s, *workload, naive, pruned.Query, *timeout, opts, *shards, *scale)
		} else {
			err = runBoth(s, *workload, naive, pruned.Query, *timeout, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xml2sql: %v\n", err)
			os.Exit(1)
		}
	}
	if *showClasses {
		fmt.Println("\n-- pruned PathSet classes:")
		for _, c := range pruned.Classes {
			fmt.Printf("--   %s\n", c)
		}
	}
}

// validateFlags rejects explicitly-set flag values that make no sense, with
// a one-line error and usage exit. The zero defaults mean "off", so only
// flags the user actually passed are checked.
func validateFlags(timeout time.Duration, maxRows, maxCTEIter int, dataDir string, fsyncEvery time.Duration) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "timeout":
			if timeout <= 0 {
				err = fmt.Errorf("-timeout must be a positive duration, got %v", timeout)
			}
		case "max-rows":
			if maxRows < 0 {
				err = fmt.Errorf("-max-rows must be >= 0, got %d", maxRows)
			}
		case "max-cte-iterations":
			if maxCTEIter < 0 {
				err = fmt.Errorf("-max-cte-iterations must be >= 0, got %d", maxCTEIter)
			}
		case "data-dir":
			if dataDir == "" {
				err = fmt.Errorf("-data-dir must not be empty")
			} else if mkErr := os.MkdirAll(dataDir, 0o755); mkErr != nil {
				err = fmt.Errorf("-data-dir %s is not creatable: %v", dataDir, mkErr)
			}
		case "fsync":
			if fsyncEvery <= 0 {
				err = fmt.Errorf("-fsync must be a positive duration (omit it for fsync-per-commit), got %v", fsyncEvery)
			}
		case "shards":
			if v := flag.Lookup("shards").Value.(flag.Getter).Get().(int); v < 1 {
				err = fmt.Errorf("-shards must be at least 1, got %d", v)
			}
		case "scale":
			if v := flag.Lookup("scale").Value.(flag.Getter).Get().(int); v < 1 {
				err = fmt.Errorf("-scale must be at least 1, got %d", v)
			}
		}
	})
	return err
}

// runAudit shreds a generated workload document and audits the instance
// against the lossless-from-XML constraint (P1–P3 of §3.2), printing the
// violation report and the trust-state transition a planner would take. With
// corrupt it first injects an orphan tuple, so the command demonstrates the
// full detect-and-degrade lifecycle; in that mode a clean audit is the
// failure.
func runAudit(s *schema.Schema, workload string, corrupt bool) error {
	if workload == "" {
		return fmt.Errorf("-audit requires a built-in -workload to generate an instance for")
	}
	doc, err := cli.GenerateDoc(workload)
	if err != nil {
		return err
	}
	store := relational.NewStore()
	if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
		return err
	}
	if corrupt {
		rel := orphanTarget(s)
		if err := shred.InjectOrphan(s, store, rel, 999999999); err != nil {
			return err
		}
		fmt.Printf("-- injected an orphan tuple into %s\n", rel)
	}
	rep, err := integrity.Audit(context.Background(), integrity.StoreSource(store), s)
	if err != nil {
		return err
	}
	fmt.Printf("-- audit of a generated %s instance: %d relations, %d tuples checked in %v\n",
		workload, rep.Relations, rep.Tuples, rep.Elapsed.Round(time.Microsecond))
	if rep.Clean() {
		fmt.Printf("-- constraint holds: trust %s -> %s; pruned translations are sound on this instance\n",
			integrity.TrustUnverified, integrity.TrustVerified)
		if corrupt {
			return fmt.Errorf("corrupted instance unexpectedly audited clean")
		}
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Printf("-- %s\n", v)
	}
	if rep.Truncated {
		fmt.Printf("-- ... %d further violation(s) truncated\n", rep.Total-len(rep.Violations))
	}
	fmt.Printf("-- %d violation(s): trust %s -> %s; a planner now serves baseline (safe-mode) translations\n",
		rep.Total, integrity.TrustUnverified, integrity.TrustViolated)
	if !corrupt {
		return fmt.Errorf("instance violates the lossless-from-XML constraint")
	}
	return nil
}

// orphanTarget picks a deterministic non-root relation to corrupt.
func orphanTarget(s *schema.Schema) string {
	rootRel := s.RootNode().Relation
	defs, err := s.DeriveRelations()
	if err == nil {
		names := make([]string, 0, len(defs))
		for name := range defs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if name != rootRel {
				return name
			}
		}
	}
	return rootRel
}

// emitLoadScript shreds a generated workload document and prints its rows as
// literal INSERT statements in the chosen dialect.
func emitLoadScript(s *schema.Schema, workload string, d *sqlast.Dialect) error {
	if workload == "" {
		return fmt.Errorf("-load requires a built-in -workload to generate a document for")
	}
	doc, err := cli.GenerateDoc(workload)
	if err != nil {
		return err
	}
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		return err
	}
	fmt.Printf("-- %d tuples from a generated %s document (%s dialect)\n%s",
		results[0].Tuples, workload, d.Name(), backend.LoadScript(store, d))
	return nil
}

// runStats shreds a generated workload document and dumps its per-relation
// row counts as JSON.
func runStats(s *schema.Schema, workload string) error {
	if workload == "" {
		return fmt.Errorf("-stats requires a built-in -workload to generate an instance for")
	}
	doc, err := cli.GenerateDoc(workload)
	if err != nil {
		return err
	}
	store := relational.NewStore()
	if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
		return err
	}
	out, err := json.MarshalIndent(stats.CollectStore(store), "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// printExplain prints the planner's Explain for the query under both trust
// states: the plan a verified instance serves, and the one safe mode serves.
func printExplain(s *schema.Schema, query string) error {
	p := xmlsql.NewPlanner(s)
	fmt.Printf("\n-- plan decision (rule: serve the pruned translation unless it fell back, else the baseline):\n")
	for _, mode := range []struct {
		label string
		trust xmlsql.TrustState
	}{{"trusted:  ", xmlsql.TrustVerified}, {"safe mode:", xmlsql.TrustViolated}} {
		p.SetTrustState(mode.trust)
		ex, err := p.Explain(context.Background(), query)
		if err != nil {
			return err
		}
		fmt.Printf("--   %s %s [reason: %s; %s]\n", mode.label, ex.Decision.KnobKey(), ex.Decision.Reason, reasonGloss[ex.Decision.Reason])
	}
	return nil
}

// reasonGloss spells out each plan-rule reason for -explain.
var reasonGloss = map[string]string{
	translate.ReasonPruned:   "the lossless-from-XML translation exists",
	translate.ReasonFallback: "pruning not applicable, baseline retained",
	translate.ReasonSafeMode: "served while the instance is not trusted",
}

// runBoth shreds a generated document and executes both translations under
// the requested timeout and resource guards, verifying multiset equality and
// printing timings.
func runBoth(s *schema.Schema, workload string, naive, pruned *sqlast.Query, timeout time.Duration, opts engine.Options) error {
	if workload == "" {
		return fmt.Errorf("-execute requires a built-in -workload")
	}
	doc, err := cli.GenerateDoc(workload)
	if err != nil {
		return err
	}
	store := relational.NewStore()
	if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	time1 := time.Now()
	nres, err := engine.Execute(ctx, store, naive, opts)
	if err != nil {
		return fmt.Errorf("baseline execution: %w", err)
	}
	naiveDur := time.Since(time1)
	time2 := time.Now()
	pres, err := engine.Execute(ctx, store, pruned, opts)
	if err != nil {
		return fmt.Errorf("pruned execution: %w", err)
	}
	prunedDur := time.Since(time2)
	if !nres.MultisetEqual(pres) {
		return fmt.Errorf("translations returned different results")
	}
	fmt.Printf("\n-- executed on a generated %s document (%d tuples): %d rows\n",
		workload, store.TotalRows(), pres.Len())
	fmt.Printf("-- baseline %v, pruned %v (%.2fx); results verified equal\n",
		naiveDur, prunedDur, float64(naiveDur)/float64(prunedDur))
	return nil
}

// runSharded is the sharded/scaled variant of runBoth: it generates scale
// documents, loads them once into a single store and once into an N-shard
// scatter-gather composite, executes both translations on the composite, and
// verifies each against the single store — the CLI face of the sharded
// differential. Per-shard row counts expose the partition skew.
func runSharded(s *schema.Schema, workload string, naive, pruned *sqlast.Query, timeout time.Duration, opts engine.Options, shards, scale int) error {
	if workload == "" {
		return fmt.Errorf("-execute requires a built-in -workload")
	}
	docs, err := cli.GenerateDocs(workload, scale)
	if err != nil {
		return err
	}
	single := backend.NewMem()
	single.SetEngineOptions(opts)
	if _, err := single.Load(s, docs...); err != nil {
		return err
	}
	comp, err := sharded.NewMem(shards, sharded.Options{})
	if err != nil {
		return err
	}
	comp.SetEngineOptions(opts)
	if err := comp.EnsureSchema(s); err != nil {
		return err
	}
	if _, err := comp.Load(s, docs...); err != nil {
		return err
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	run := func(label string, q *sqlast.Query) (time.Duration, error) {
		ref, err := single.Execute(ctx, q)
		if err != nil {
			return 0, fmt.Errorf("%s single-store execution: %w", label, err)
		}
		start := time.Now()
		got, err := comp.Execute(ctx, q)
		if err != nil {
			return 0, fmt.Errorf("%s sharded execution: %w", label, err)
		}
		dur := time.Since(start)
		if !ref.MultisetEqual(got) {
			return 0, fmt.Errorf("%s: sharded result diverges from the single store", label)
		}
		return dur, nil
	}
	naiveDur, err := run("baseline", naive)
	if err != nil {
		return err
	}
	prunedDur, err := run("pruned", pruned)
	if err != nil {
		return err
	}
	m, err := comp.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\n-- executed on %d generated %s document(s) across %d shard(s); both translations verified against a single store\n",
		scale, workload, shards)
	fmt.Printf("-- sharded baseline %v, sharded pruned %v (%.2fx)\n",
		naiveDur, prunedDur, float64(naiveDur)/float64(prunedDur))
	fmt.Printf("-- per-shard docs %v, rows %v\n", m.DocsPerShard, m.RowsPerShard)
	return nil
}

// cliMutation is the -update JSON wire shape (ops spelled out).
type cliMutation struct {
	Op   string `json:"op"`
	Path string `json:"path"`
	XML  string `json:"xml,omitempty"`
}

// runUpdate applies the JSON mutation batch transactionally over a workload
// instance and prints the planned DML plus the incremental and full audit
// verdicts — the command-line face of the update path. Without dataDir the
// instance is generated in memory and discarded; with dataDir it is
// recovered from (and durably committed to) a write-ahead-logged directory.
func runUpdate(s *schema.Schema, workload, mutsJSON string, dialect *sqlast.Dialect, dataDir string, fsyncEvery time.Duration) error {
	if workload == "" {
		return fmt.Errorf("-update requires a built-in -workload to generate an instance for")
	}
	var muts []cliMutation
	if err := json.Unmarshal([]byte(mutsJSON), &muts); err != nil {
		return fmt.Errorf("parsing -update JSON: %w", err)
	}
	if len(muts) == 0 {
		return fmt.Errorf("-update batch is empty")
	}
	var batch update.Batch
	for i, m := range muts {
		var op update.Op
		switch m.Op {
		case "insert":
			op = update.OpInsert
		case "delete":
			op = update.OpDelete
		case "replace":
			op = update.OpReplace
		default:
			return fmt.Errorf("mutation %d: unknown op %q (want insert, delete, or replace)", i, m.Op)
		}
		batch.Muts = append(batch.Muts, update.Mutation{Op: op, Path: m.Path, XML: m.XML})
	}

	var store *relational.Store
	var applier *update.Applier
	var mgr *wal.Manager
	if dataDir == "" {
		doc, err := cli.GenerateDoc(workload)
		if err != nil {
			return err
		}
		store = relational.NewStore()
		if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
			return err
		}
		if applier, err = update.ForStore(s, store, update.Options{}); err != nil {
			return err
		}
	} else {
		var info *wal.RecoveryInfo
		var err error
		mgr, info, err = wal.Open(dataDir, wal.Options{SyncEvery: fsyncEvery})
		if err != nil {
			return err
		}
		defer mgr.Close()
		store = mgr.Store()
		if !info.SnapshotLoaded {
			doc, err := cli.GenerateDoc(workload)
			if err != nil {
				return err
			}
			if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
				return err
			}
			if err := mgr.Checkpoint(); err != nil {
				return err
			}
			fmt.Printf("-- initialized %s: shredded a generated %s instance and checkpointed\n", dataDir, workload)
		} else {
			fmt.Printf("-- recovered %s: snapshot lsn %d, %d batch(es) replayed in %v, truncated_tail=%v\n",
				dataDir, info.SnapshotLSN, info.ReplayedBatches,
				info.Elapsed.Round(time.Microsecond), info.TruncatedTail)
		}
		mem := backend.NewMemOn(store)
		mem.SetCommitLog(mgr)
		if applier, err = update.New(s, integrity.StoreSource(store), integrity.StoreProbe(store), mem, plancache.Translator(s), update.Options{}); err != nil {
			return err
		}
	}

	res, err := applier.Apply(context.Background(), batch)
	if err != nil {
		var ue *update.Error
		if errors.As(err, &ue) {
			fmt.Printf("-- batch rejected (%s) at mutation %d (%s); nothing was applied\n", ue.Kind, ue.Index, ue.Path)
			if ue.Report != nil {
				for _, v := range ue.Report.Violations {
					fmt.Printf("--   %s\n", v)
				}
			}
		}
		return err
	}
	instance := fmt.Sprintf("a generated %s instance", workload)
	if dataDir != "" {
		instance = fmt.Sprintf("the durable %s instance in %s", workload, dataDir)
	}
	fmt.Printf("-- applied %d mutation(s) as %d DML statement(s) over %s\n",
		len(batch.Muts), res.Stmts, instance)
	for _, stmt := range res.Statements {
		fmt.Printf("%s;\n", stmt.SQLFor(dialect))
	}
	fmt.Printf("-- touched: %v (%d written, %d deleted tuples)\n",
		res.Touched.Relations(), len(res.Touched.Written), len(res.Touched.Deleted))
	if res.AuditErr != nil {
		fmt.Printf("-- incremental audit of the touched neighborhood did not complete: %v\n", res.AuditErr)
	} else {
		fmt.Printf("-- incremental audit of the touched neighborhood: clean=%v (%d tuples probed in %v)\n",
			res.Audit.Clean(), res.Audit.Tuples, res.Audit.Elapsed.Round(time.Microsecond))
	}
	if res.Preexisting != nil {
		fmt.Printf("-- note: %d violation(s) predate the batch and were not introduced by it\n", res.Preexisting.Total)
	}
	full, err := integrity.Audit(context.Background(), integrity.StoreSource(store), s)
	if err != nil {
		return err
	}
	fmt.Printf("-- full audit for comparison: clean=%v (%d tuples in %v)\n",
		full.Clean(), full.Tuples, full.Elapsed.Round(time.Microsecond))
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("-- durably committed: %d record(s), %d log byte(s), last seq %d, %d snapshot(s)\n",
			st.Records, st.Bytes, st.LastSeq, st.Snapshots)
	}
	return nil
}
