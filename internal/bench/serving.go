package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlsql"
	"xmlsql/internal/workloads"
)

// ServingComparison measures the query-serving fast path on one (workload,
// query) pair: the plan cache (cold translate+execute vs hot cache-hit plan
// plus execute).
type ServingComparison struct {
	Workload string `json:"workload"`
	Query    string `json:"query"`

	// Plan cache: ColdNs is parse+translate+execute from scratch, HotNs is
	// Planner.Plan after the first call (a cache hit) plus the execution.
	ColdNs     float64 `json:"cold_ns"`
	HotNs      float64 `json:"hot_ns"`
	HotSpeedup float64 `json:"hot_speedup"`
}

// servingCase declares one serving measurement.
type servingCase struct {
	workload string
	query    string
	schema   *xmlsql.Schema
	doc      *xmlsql.Document
}

// servingSuite builds the serving cases: the recursive S3 schema (the most
// expensive translations, so the plan cache's best case), schema-aware XMark
// and the schema-oblivious Edge mapping (the widest naive unions).
func servingSuite(sc Scale) ([]servingCase, error) {
	s3 := workloads.S3()
	s3Doc := workloads.GenerateS3(workloads.S3Config{Fanout: sc.S3Fanout, MaxDepth: sc.S3Depth, Seed: 1})
	xm := workloads.XMark()
	xmDoc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	xf := workloads.XMarkFull()
	edge, err := xmlsql.EdgeMapping(xf)
	if err != nil {
		return nil, err
	}
	edgeDoc := workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: sc.ItemsPerContinent / 2, CategoriesPerItem: 2, NumCategories: 50, Seed: 1,
	})
	// The small S3 store isolates the plan-cache effect: translation cost is
	// store-independent, so shrinking the data exposes the full
	// parse+translate overhead the cache removes (the same regime as
	// BenchmarkPlannerHot/Cold).
	s3Small := workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 5, Seed: 1})
	return []servingCase{
		{workload: "s3-small", query: workloads.QueryQ4, schema: s3, doc: s3Small},
		{workload: "s3", query: workloads.QueryQ4, schema: s3, doc: s3Doc},
		{workload: "s3", query: workloads.QueryQ7, schema: s3, doc: s3Doc},
		{workload: "xmark", query: workloads.QueryQ1, schema: xm, doc: xmDoc},
		{workload: "xmarkfull-edge", query: workloads.QueryQ8, schema: edge, doc: edgeDoc},
	}, nil
}

// RunServing measures the serving fast path for every serving case.
func RunServing(sc Scale) ([]*ServingComparison, error) {
	cases, err := servingSuite(sc)
	if err != nil {
		return nil, err
	}
	out := make([]*ServingComparison, 0, len(cases))
	for _, c := range cases {
		cmp, err := runServing(c)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}

func runServing(c servingCase) (*ServingComparison, error) {
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(c.schema, store, c.doc); err != nil {
		return nil, fmt.Errorf("serving %s %s: shred: %w", c.workload, c.query, err)
	}

	// Correctness gate before timing: hot and cold paths must agree.
	planner := xmlsql.NewPlanner(c.schema)
	hot := func() (*xmlsql.Result, error) {
		tr, err := planner.Plan(c.query)
		if err != nil {
			return nil, err
		}
		return xmlsql.Execute(context.Background(), store, tr.Query, xmlsql.ExecuteOptions{})
	}
	hotRes, err := hot()
	if err != nil {
		return nil, fmt.Errorf("serving %s %s: planner: %w", c.workload, c.query, err)
	}
	coldRes, err := xmlsql.Eval(c.schema, store, c.query)
	if err != nil {
		return nil, err
	}
	if !hotRes.MultisetEqual(coldRes) {
		return nil, fmt.Errorf("serving %s %s: cached plan disagrees with fresh translation", c.workload, c.query)
	}
	cmp := &ServingComparison{Workload: c.workload, Query: c.query}
	cmp.ColdNs = measureFn(func() error {
		_, err := xmlsql.Eval(c.schema, store, c.query)
		return err
	})
	cmp.HotNs = measureFn(func() error {
		_, err := hot()
		return err
	})
	if cmp.HotNs > 0 {
		cmp.HotSpeedup = cmp.ColdNs / cmp.HotNs
	}
	return cmp, nil
}

// measureFn runs fn repeatedly for at least MinMeasureTime and returns the
// mean per-call nanoseconds (same protocol as measure).
func measureFn(fn func() error) float64 {
	if err := fn(); err != nil {
		return 0
	}
	var reps int
	start := time.Now()
	for time.Since(start) < MinMeasureTime || reps < 3 {
		if err := fn(); err != nil {
			return 0
		}
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// FormatServing renders the serving comparisons as a fixed-width table.
func FormatServing(cmps []*ServingComparison) string {
	var b strings.Builder
	b.WriteString("Serving fast path: plan cache (cold vs hot)\n")
	fmt.Fprintf(&b, "%-15s %-35s %10s %10s %8s\n", "workload", "query", "cold/op", "hot/op", "speedup")
	b.WriteString(strings.Repeat("-", 82))
	b.WriteString("\n")
	for _, c := range cmps {
		fmt.Fprintf(&b, "%-15s %-35s %10s %10s %7.2fx\n",
			c.Workload, truncate(c.Query, 35), fmtNs(c.ColdNs), fmtNs(c.HotNs), c.HotSpeedup)
	}
	return b.String()
}
