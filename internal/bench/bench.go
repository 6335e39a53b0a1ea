// Package bench is the experiment harness: for every worked example and
// claim in the paper it builds the workload, shreds it, translates each
// query with and without the "lossless from XML" constraint, verifies that
// both translations agree with the reference XML evaluation, and measures
// execution times. cmd/benchrunner prints its tables; EXPERIMENTS.md records
// them.
package bench

import (
	"context"
	"fmt"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// Case is one (workload, query) measurement unit.
type Case struct {
	Experiment  string // E1..E8 id from DESIGN.md
	Workload    string
	Query       string
	Schema      *schema.Schema
	Doc         *xmltree.Document
	ShredOpts   shred.Options
	Description string
}

// Comparison is the measured outcome of a Case.
type Comparison struct {
	Case

	// Backend names where the measured executions ran ("mem" or
	// "db(sqlite)"); verification always also consults the reference XML
	// evaluation.
	Backend     string
	NaiveShape  sqlast.Shape
	PrunedShape sqlast.Shape
	NaiveSQL    string
	PrunedSQL   string
	Fallback    bool

	Rows int
	// NaiveWork and PrunedWork are each plan's engine.Work total (rows
	// scanned + examined + materialized), always counted by the in-memory
	// engine, so they are exact and the same under every backend.
	NaiveWork  int
	PrunedWork int
	NaiveNs    float64
	PrunedNs   float64
	Speedup    float64
	Verified   bool
	TotalRows  int // store size
}

// Name identifies the case in summaries: experiment, workload and query.
func (c *Comparison) Name() string { return c.Experiment + " " + c.Workload + " " + c.Query }

// MinMeasureTime is how long each side is measured (adaptive repetitions).
const MinMeasureTime = 50 * time.Millisecond

// BackendNames lists the -backend values benchrunner accepts: "mem" runs
// queries directly on the in-memory engine, "fakedb" routes them through the
// DB backend (dialect rendering, database/sql, the fake driver's SQL parser)
// so the serving overhead of a real driver stack is measurable.
func BackendNames() []string { return []string{"mem", "fakedb"} }

// Run measures one case on the in-memory engine.
func Run(c Case) (*Comparison, error) { return RunOn(c, "mem") }

// RunOn measures one case with executions routed to the named backend.
func RunOn(c Case, backendName string) (*Comparison, error) {
	store := relational.NewStore()
	results, err := shred.ShredAll(c.Schema, store, c.ShredOpts, c.Doc)
	if err != nil {
		return nil, fmt.Errorf("%s %s: shred: %w", c.Experiment, c.Query, err)
	}

	// The reference store stays authoritative for verification; the named
	// backend is what executes (and is measured). The fakedb route copies
	// the shredded rows over the same DDL + INSERT scripts xml2sql emits,
	// so custom ShredOpts instances transfer exactly.
	mem := memExec(store)
	exec := mem
	label := "mem"
	switch backendName {
	case "", "mem":
	case "fakedb":
		d := sqlast.DialectSQLite
		raw := fakedb.Open()
		ddl, err := backend.DDL(c.Schema, d)
		if err != nil {
			return nil, fmt.Errorf("%s %s: ddl: %w", c.Experiment, c.Query, err)
		}
		if _, err := raw.Exec(ddl); err != nil {
			return nil, fmt.Errorf("%s %s: ddl: %w", c.Experiment, c.Query, err)
		}
		if _, err := raw.Exec(backend.LoadScript(store, d)); err != nil {
			return nil, fmt.Errorf("%s %s: load: %w", c.Experiment, c.Query, err)
		}
		db := backend.NewDB(raw, d)
		defer db.Close()
		exec = func(q *sqlast.Query) (*engine.Result, error) {
			return db.Execute(context.Background(), q)
		}
		label = db.Name()
	default:
		return nil, fmt.Errorf("bench: unknown backend %q (want mem or fakedb)", backendName)
	}

	q, err := pathexpr.Parse(c.Query)
	if err != nil {
		return nil, err
	}
	g, err := pathid.Build(c.Schema, q)
	if err != nil {
		return nil, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return nil, err
	}
	pruned, err := core.Translate(g)
	if err != nil {
		return nil, err
	}

	nres, err := exec(naive)
	if err != nil {
		return nil, fmt.Errorf("%s %s: naive execution: %w", c.Experiment, c.Query, err)
	}
	pres, err := exec(pruned.Query)
	if err != nil {
		return nil, fmt.Errorf("%s %s: pruned execution: %w", c.Experiment, c.Query, err)
	}

	verified := nres.MultisetEqual(pres)
	if verified {
		wantVals, err := shred.EvalReferenceAll(results, q)
		if err != nil {
			return nil, err
		}
		want := &engine.Result{}
		for _, v := range wantVals {
			want.Rows = append(want.Rows, relational.Row{v})
		}
		verified = pres.MultisetEqual(want)
	}

	// Work is counted on the in-memory engine whatever backend is timed.
	nwork, pwork := nres, pres
	if label != "mem" {
		if nwork, err = mem(naive); err != nil {
			return nil, err
		}
		if pwork, err = mem(pruned.Query); err != nil {
			return nil, err
		}
	}

	naiveNs := measure(exec, naive)
	prunedNs := measure(exec, pruned.Query)

	cmp := &Comparison{
		Case:        c,
		Backend:     label,
		NaiveShape:  naive.Shape(),
		PrunedShape: pruned.Query.Shape(),
		NaiveSQL:    naive.SQL(),
		PrunedSQL:   pruned.Query.SQL(),
		Fallback:    pruned.Fallback,
		Rows:        pres.Len(),
		NaiveWork:   nwork.Work.Total(),
		PrunedWork:  pwork.Work.Total(),
		NaiveNs:     naiveNs,
		PrunedNs:    prunedNs,
		Verified:    verified,
		TotalRows:   store.TotalRows(),
	}
	if prunedNs > 0 {
		cmp.Speedup = naiveNs / prunedNs
	}
	return cmp, nil
}

// memExec adapts an in-memory store to the executor signature measure and
// RunOn route queries through, so ablations (always in-memory) and the
// backend-selectable main suite share one measurement path.
func memExec(store *relational.Store) func(*sqlast.Query) (*engine.Result, error) {
	return func(q *sqlast.Query) (*engine.Result, error) {
		return engine.Execute(context.Background(), store, q, engine.Options{})
	}
}

// measure executes the query repeatedly for at least MinMeasureTime and
// returns the mean per-execution nanoseconds.
func measure(exec func(*sqlast.Query) (*engine.Result, error), q *sqlast.Query) float64 {
	// Warm-up run.
	if _, err := exec(q); err != nil {
		return 0
	}
	var reps int
	start := time.Now()
	for time.Since(start) < MinMeasureTime || reps < 3 {
		if _, err := exec(q); err != nil {
			return 0
		}
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// Scale multiplies the default document sizes.
type Scale struct {
	ItemsPerContinent int
	AdsPerSection     int
	S1Groups          int
	S2Groups          int
	S3Fanout          int
	S3Depth           int
}

// DefaultScale is sized for quick runs; cmd/benchrunner can raise it.
func DefaultScale() Scale {
	return Scale{ItemsPerContinent: 200, AdsPerSection: 300, S1Groups: 300, S2Groups: 200, S3Fanout: 3, S3Depth: 6}
}

// Suite assembles the full experiment list E1..E8 at a given scale.
func Suite(sc Scale) []Case {
	xm := workloads.XMark()
	xmDoc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	s1 := workloads.S1()
	s1Doc := workloads.GenerateS1(sc.S1Groups, 1)
	adversarial := shred.Options{FillUnspecified: func(rel, col string, kind relational.Kind) relational.Value {
		return relational.Int(1)
	}}
	s2 := workloads.S2()
	s2Doc := workloads.GenerateS2(sc.S2Groups, 1)
	s3 := workloads.S3()
	s3Doc := workloads.GenerateS3(workloads.S3Config{Fanout: sc.S3Fanout, MaxDepth: sc.S3Depth, Seed: 1})
	xf := workloads.XMarkFull()
	edge, err := shred.EdgeSchemaFor(xf)
	if err != nil {
		panic(err)
	}
	edgeDoc := workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent / 2, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	adex := workloads.ADEX()
	adexDoc := workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: sc.AdsPerSection, Seed: 1})
	xa := workloads.XMarkAuctions()
	xaDoc := workloads.GenerateXMarkAuctions(workloads.XMarkAuctionsConfig{
		ItemsPerContinent: sc.ItemsPerContinent / 2,
		People:            sc.AdsPerSection,
		OpenAuctions:      sc.AdsPerSection,
		BiddersPerAuction: 3,
		ClosedAuctions:    sc.AdsPerSection / 2,
		Seed:              1,
	})

	cases := []Case{
		{Experiment: "E1", Workload: "xmark", Query: workloads.QueryQ1, Schema: xm, Doc: xmDoc,
			Description: "§2 Q1: SQ1^1 (6-branch union of 2-join queries) vs SQ1^2 (scan)"},
		{Experiment: "E2", Workload: "xmark", Query: workloads.QueryQ2, Schema: xm, Doc: xmDoc,
			Description: "§4.1 Q2: root-to-leaf 2-join chain vs 1-join suffix with parentcode"},
		{Experiment: "E3", Workload: "s1", Query: workloads.QueryQ3, Schema: s1, Doc: s1Doc, ShredOpts: adversarial,
			Description: "Fig.5 Q3: duplicate-avoiding SQ3^2 on an adversarial instance"},
		{Experiment: "E4", Workload: "s2", Query: "//s/t1", Schema: s2, Doc: s2Doc,
			Description: "Fig.6 DAG: shared-subtree WITH clauses vs pruned scan"},
		{Experiment: "E4", Workload: "s2", Query: "//t2", Schema: s2, Doc: s2Doc,
			Description: "Fig.6 DAG: second leaf"},
		{Experiment: "E5", Workload: "s3", Query: workloads.QueryQ4, Schema: s3, Doc: s3Doc,
			Description: "Fig.7 Q4: two WITH clauses vs R6 ⋈ R10"},
		{Experiment: "E5", Workload: "s3", Query: workloads.QueryQ5, Schema: s3, Doc: s3Doc,
			Description: "Fig.7 Q5: graph-path growth stopping at R1"},
		{Experiment: "E6", Workload: "s3", Query: workloads.QueryQ6, Schema: s3, Doc: s3Doc,
			Description: "Fig.9 Q6: recursive baseline vs R9 ⋈ R10"},
		{Experiment: "E6", Workload: "s3", Query: workloads.QueryQ7, Schema: s3, Doc: s3Doc,
			Description: "Fig.9 Q7: entering the recursive component, saving the R0 join"},
		{Experiment: "E7", Workload: "xmarkfull-edge", Query: workloads.QueryQ8, Schema: edge, Doc: edgeDoc,
			Description: "§5.3 Q8: 6-way self-join union vs 2-way Edge self-join"},
	}

	// E8: the speedup-range suite standing in for the referenced [10]
	// evaluation over XMark and ADEX.
	e8 := []struct {
		wl    string
		s     *schema.Schema
		d     *xmltree.Document
		query string
	}{
		{"xmark", xm, xmDoc, "//Item/InCategory/Category"},
		{"xmark", xm, xmDoc, "//InCategory/Category"},
		{"xmark", xm, xmDoc, "//Item/name"},
		{"xmark", xm, xmDoc, "//Item"},
		{"xmark", xm, xmDoc, "/Site/Regions/Africa/Item/InCategory/Category"},
		{"xmark", xm, xmDoc, "/Site/Regions/SouthAmerica/Item/name"},
		{"xmark", xm, xmDoc, "/Site//InCategory/Category"},
		{"adex", adex, adexDoc, workloads.QueryAdexAllPhones},
		{"adex", adex, adexDoc, workloads.QueryAdexAllTitles},
		{"adex", adex, adexDoc, workloads.QueryAdexVehicleEmails},
		{"adex", adex, adexDoc, workloads.QueryAdexPrices},
		{"adex", adex, adexDoc, "/Classifieds/Employment/Ad/Title"},
		{"adex", adex, adexDoc, "//Contact/Email"},
	}
	for _, e := range e8 {
		cases = append(cases, Case{
			Experiment: "E8", Workload: e.wl, Query: e.query, Schema: e.s, Doc: e.d,
			Description: "speedup-range suite (stands in for the [10] evaluation)",
		})
	}
	for _, q := range workloads.XMarkAuctionQueries {
		cases = append(cases, Case{
			Experiment: "E8", Workload: "xmarkauctions", Query: q, Schema: xa, Doc: xaDoc,
			Description: "extended XMark slice (people + auctions)",
		})
	}
	return cases
}

// RunSuite measures every case on the in-memory engine.
func RunSuite(sc Scale) ([]*Comparison, error) { return RunSuiteOn(sc, "mem") }

// RunSuiteOn measures every case on the named backend (see BackendNames).
func RunSuiteOn(sc Scale, backendName string) ([]*Comparison, error) {
	var out []*Comparison
	for _, c := range Suite(sc) {
		cmp, err := RunOn(c, backendName)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}
