package engine_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// cyclicEdges builds an E(src, dst) table holding a cycle, so a reachability
// CTE's fixpoint never converges: every round re-derives the cycle's nodes
// and the delta never empties. This is the adversarial instance the paper's
// acyclicity assumption rules out — exactly what a serving layer must survive.
func cyclicEdges(t *testing.T) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	edge, err := s.CreateTable(&relational.TableSchema{
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
	return s
}

// reachQuery is WITH RECURSIVE reach AS (E from 1 UNION ALL step) SELECT *.
func reachQuery() *sqlast.Query {
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

// bigStore builds a single-column table large enough that a triple cross
// join is effectively unbounded work (8e9 output rows), forcing cancellation
// to land mid-branch rather than between branches.
func bigStore(t *testing.T, rows int) *relational.Store {
	t.Helper()
	s := relational.NewStore()
	r, err := s.CreateTable(&relational.TableSchema{
		Name:    "R",
		Columns: []relational.Column{{Name: "n", Kind: relational.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r.MustInsert(relational.Row{relational.Int(int64(i))})
	}
	return s
}

// crossSelect is SELECT a.n FROM R a, R b, R c — a deliberate row explosion.
func crossSelect() *sqlast.Select {
	return &sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("a", "n")},
		From: []sqlast.FromItem{sqlast.From("R", "a"), sqlast.From("R", "b"), sqlast.From("R", "c")},
	}
}

// TestCancelMidRecursiveCTE cancels a diverging recursive CTE and requires
// the engine to stop within the test's own (generous) deadline with
// context.Canceled, instead of looping toward MaxRecursionRounds.
func TestCancelMidRecursiveCTE(t *testing.T) {
	s := cyclicEdges(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := engine.Execute(ctx, s, reachQuery(), engine.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; not prompt", elapsed)
	}
}

// TestDeadlineMidUnion runs a union of row-explosion branches under a short
// deadline and requires a prompt DeadlineExceeded from inside the first
// branch's join loops.
func TestDeadlineMidUnion(t *testing.T) {
	s := bigStore(t, 2000)
	q := &sqlast.Query{Selects: []*sqlast.Select{
		crossSelect(), crossSelect(), crossSelect(), crossSelect(),
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := engine.Execute(ctx, s, q, engine.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v; not prompt", elapsed)
	}
}

// TestNoGoroutineLeakAfterCancel repeatedly cancels many-branch queries and
// checks the goroutine count settles back to its baseline: an aborted query
// leaves nothing running behind it. Run with -race.
func TestNoGoroutineLeakAfterCancel(t *testing.T) {
	s := bigStore(t, 2000)
	q := &sqlast.Query{Selects: []*sqlast.Select{
		crossSelect(), crossSelect(), crossSelect(), crossSelect(),
		crossSelect(), crossSelect(), crossSelect(), crossSelect(),
	}}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := engine.Execute(ctx, s, q, engine.Options{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	// Allow the runtime a moment to reap the timers' goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled queries",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxCTEIterationsTypedError bounds the diverging fixpoint with
// MaxCTEIterations and requires the typed *ResourceError, not a hang and not
// a stringly error.
func TestMaxCTEIterationsTypedError(t *testing.T) {
	s := cyclicEdges(t)
	_, err := engine.Execute(context.Background(), s, reachQuery(), engine.Options{MaxCTEIterations: 10})
	var re *engine.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *engine.ResourceError", err)
	}
	if re.Resource != engine.ResourceCTEIterations || re.Limit != 10 {
		t.Fatalf("ResourceError = %+v, want cte-iterations limit 10", re)
	}
	if !strings.Contains(re.Error(), "reach") {
		t.Errorf("error %q does not name the diverging cte", re.Error())
	}
}

// TestMaxRowsBudget caps materialized rows across a union's branches.
func TestMaxRowsBudget(t *testing.T) {
	s := bigStore(t, 200)
	q := &sqlast.Query{Selects: []*sqlast.Select{crossSelect(), crossSelect()}}
	_, err := engine.Execute(context.Background(), s, q, engine.Options{MaxRows: 50000})
	var re *engine.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *engine.ResourceError", err)
	}
	if re.Resource != engine.ResourceRows || re.Limit != 50000 {
		t.Fatalf("ResourceError = %+v, want rows limit 50000", re)
	}
	// Under the budget, the same query succeeds — the guard must not
	// undercount or misfire.
	small := &sqlast.Query{Selects: []*sqlast.Select{{
		Cols: []sqlast.SelectItem{sqlast.Col("a", "n")},
		From: []sqlast.FromItem{sqlast.From("R", "a")},
	}}}
	res, err := engine.Execute(context.Background(), s, small, engine.Options{MaxRows: 50000})
	if err != nil {
		t.Fatalf("under-budget query failed: %v", err)
	}
	if res.Len() != 200 {
		t.Fatalf("under-budget query returned %d rows, want 200", res.Len())
	}
}

// TestMaxRowsRecursiveCTE caps a diverging recursive CTE by row volume
// alone: even without an iteration bound, accumulation must trip MaxRows.
func TestMaxRowsRecursiveCTE(t *testing.T) {
	s := cyclicEdges(t)
	_, err := engine.Execute(context.Background(), s, reachQuery(), engine.Options{MaxRows: 1000})
	var re *engine.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *engine.ResourceError", err)
	}
	if re.Resource != engine.ResourceRows {
		t.Fatalf("Resource = %q, want rows", re.Resource)
	}
}

// TestUnionBranchPanicContained feeds the executor a poisoned (nil) branch:
// the panic must become the query's error instead of killing the process.
func TestUnionBranchPanicContained(t *testing.T) {
	s := bigStore(t, 10)
	ok := &sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("a", "n")},
		From: []sqlast.FromItem{sqlast.From("R", "a")},
	}
	q := &sqlast.Query{Selects: []*sqlast.Select{ok, nil, ok}}
	_, err := engine.Execute(context.Background(), s, q, engine.Options{})
	if err == nil || !strings.Contains(err.Error(), "panic evaluating union branch") {
		t.Fatalf("err = %v, want contained panic error", err)
	}
}

// TestPreCancelledContext returns immediately without touching the store.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := engine.Execute(ctx, relational.NewStore(), &sqlast.Query{}, engine.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
