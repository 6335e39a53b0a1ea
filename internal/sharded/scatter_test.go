package sharded_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/engine"
	"xmlsql/internal/sharded"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/workloads"
)

// sqlastQuery keeps the wrapper-shard method signatures compact.
type sqlastQuery = sqlast.Query

// TestSkewedPartitionerStillCorrect is the seeded skew stress test: a
// pathological partitioner lands ~all documents on one shard of four. The
// composite must still answer every query identically to a single store, and
// the imbalance must be visible in the recorded per-shard row counts.
func TestSkewedPartitionerStillCorrect(t *testing.T) {
	w := diffWorkloads()[0] // xmark, 6 documents
	ref := singleReference(t, w)

	// Seeded: shard 0 with probability 7/8, uniform otherwise — with seed 42
	// and 6 documents, everything in practice piles onto shard 0.
	rng := rand.New(rand.NewSource(42))
	skewed := func(docIndex int, rootID int64) int {
		if rng.Intn(8) < 7 {
			return 0
		}
		return rng.Intn(4)
	}
	c, err := sharded.NewMem(4, sharded.Options{Partitioner: skewed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, query := range w.queries {
		for _, q := range translations(t, w.schema, query) {
			want, err := ref.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "skewed/"+query, want, got)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total, max int64
	for _, r := range m.RowsPerShard {
		total += r
		if r > max {
			max = r
		}
	}
	if total == 0 {
		t.Fatal("no rows recorded")
	}
	if float64(max) < 0.75*float64(total) {
		t.Errorf("expected the skew to surface in per-shard row counts; max shard holds %d of %d rows (%v)",
			max, total, m.RowsPerShard)
	}
	if int64(total) != int64(ref.Store().TotalRows()) {
		t.Errorf("skewed placement lost rows: %d vs %d", total, ref.Store().TotalRows())
	}
}

// slowShard wraps a Mem shard so every Execute blocks until its context is
// cancelled (or a generous timeout), letting the cancellation tests hold a
// scatter mid-flight deterministically.
type slowShard struct {
	*backend.Mem
	entered chan struct{}
}

func (s *slowShard) Execute(ctx context.Context, q *sqlastQuery) (*engine.Result, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(10 * time.Second):
		return nil, errors.New("slowShard: never cancelled")
	}
}

// TestScatterCancellation: a context cancelled mid-scatter tears down every
// shard worker promptly and leaks no goroutines.
func TestScatterCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	w := diffWorkloads()[0]
	shards := make([]backend.Backend, 4)
	entered := make(chan struct{}, 8)
	for i := range shards {
		shards[i] = &slowShard{Mem: backend.NewMem(), entered: entered}
	}
	c, err := sharded.New(shards, sharded.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	q := translations(t, w.schema, w.queries[0])[1]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Execute(ctx, q)
		done <- err
	}()

	// Wait until at least one shard worker is actually blocked mid-query,
	// then cancel.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no shard worker entered Execute")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scatter did not tear down after cancellation")
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestScatterPreCancelled: an already-cancelled context returns immediately
// without touching any shard.
func TestScatterPreCancelled(t *testing.T) {
	w := diffWorkloads()[0]
	c, err := sharded.NewMem(4, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := translations(t, w.schema, w.queries[0])[1]
	if _, err := c.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestScatterShardErrorCancelsSiblings: the first shard error cancels the
// remaining workers and surfaces, wrapped with the shard index.
func TestScatterShardErrorCancelsSiblings(t *testing.T) {
	w := diffWorkloads()[0]
	boom := errors.New("shard exploded")
	shards := []backend.Backend{
		backend.NewMem(),
		&failingShard{Mem: backend.NewMem(), err: boom},
		backend.NewMem(),
		backend.NewMem(),
	}
	c, err := sharded.New(shards, sharded.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	q := translations(t, w.schema, w.queries[0])[1]
	if _, err := c.Execute(context.Background(), q); !errors.Is(err, boom) {
		t.Fatalf("want shard error, got %v", err)
	}
}

// TestScatterErrorMentioningCancelIsReturned: a shard error that is not a
// cancellation surfaces even when its text says "context canceled" and the
// error itself has cancelled the scatter's context.
func TestScatterErrorMentioningCancelIsReturned(t *testing.T) {
	w := diffWorkloads()[0]
	stalled := errors.New("upstream stalled: context canceled")
	shards := []backend.Backend{&failingShard{Mem: backend.NewMem(), err: stalled}, backend.NewMem()}
	c, err := sharded.New(shards, sharded.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	q := translations(t, w.schema, w.queries[0])[1]
	if _, err := c.Execute(context.Background(), q); !errors.Is(err, stalled) {
		t.Fatalf("want the shard error, got %v", err)
	}
}

// TestScatterShardErrorOutranksSiblingCancellation: a sibling that the
// failing shard's teardown cancelled reports cancellation, and an earlier
// shard index does not let that cancellation hide the error that caused it.
func TestScatterShardErrorOutranksSiblingCancellation(t *testing.T) {
	w := diffWorkloads()[0]
	boom := errors.New("shard exploded")
	shards := []backend.Backend{&slowShard{Mem: backend.NewMem()}, &failingShard{Mem: backend.NewMem(), err: boom}}
	c, err := sharded.New(shards, sharded.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	q := translations(t, w.schema, w.queries[0])[1]
	if _, err := c.Execute(context.Background(), q); !errors.Is(err, boom) {
		t.Fatalf("want the shard error, got %v", err)
	}
}

type failingShard struct {
	*backend.Mem
	err error
}

func (s *failingShard) Execute(ctx context.Context, q *sqlastQuery) (*engine.Result, error) {
	return nil, s.err
}

// recordingShard remembers the last result its Mem shard returned.
type recordingShard struct {
	*backend.Mem
	last *engine.Result
}

func (s *recordingShard) Execute(ctx context.Context, q *sqlastQuery) (*engine.Result, error) {
	res, err := s.Mem.Execute(ctx, q)
	s.last = res
	return res, err
}

// TestOneShardMergeDoesNotCopy: when one shard holds every row (always, on a
// 1-shard composite), the merge returns that shard's row slice as is, and
// the merge counters still count its rows.
func TestOneShardMergeDoesNotCopy(t *testing.T) {
	w := diffWorkloads()[0]
	rec := &recordingShard{Mem: backend.NewMem()}
	c, err := sharded.New([]backend.Backend{rec}, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(w.schema, w.docs...); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := c.Execute(ctx, translations(t, w.schema, w.queries[0])[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	if &got.Rows[0] != &rec.last.Rows[0] || len(got.Rows) != len(rec.last.Rows) {
		t.Error("the merge copied the only shard's rows")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scatters != 1 || m.MergedRows != int64(len(got.Rows)) {
		t.Errorf("metrics: %d scatters, %d merged rows; want 1, %d", m.Scatters, m.MergedRows, len(got.Rows))
	}
}

// TestScatterWorkEqualsSingleStore: a scatter's Work is the sum of its
// shards' Work, and that sum is exactly a single store's Work on the same
// documents, for every workload query, naive and pruned, at 1, 2 and 4
// shards.
func TestScatterWorkEqualsSingleStore(t *testing.T) {
	ctx := context.Background()
	for _, w := range diffWorkloads() {
		ref := singleReference(t, w)
		for _, n := range []int{1, 2, 4} {
			c := memShardTopology(t, w, n)
			for _, query := range w.queries {
				for vi, q := range translations(t, w.schema, query) {
					want, err := ref.Execute(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.Execute(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if got.Work != want.Work {
						t.Errorf("%s %s (translation %d) on %d shards: work %+v, single store %+v", w.name, query, vi, n, got.Work, want.Work)
					}
				}
			}
		}
	}
}

// BenchmarkScatter times a 4-shard scatter of a one-column scan, of a
// filtered one-column scan and of a Q2-shaped index join over 100 xmark
// documents.
func BenchmarkScatter(b *testing.B) {
	cfg := workloads.DefaultXMarkConfig()
	cfg.ItemsPerContinent = 25
	c, err := sharded.NewMem(4, sharded.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Load(workloads.XMark(), workloads.GenerateXMarkScale(cfg, 100)...); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		q    *sqlast.Query
	}{
		{"scan", sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("I", "name")},
			From: []sqlast.FromItem{sqlast.From("Item", "I")},
		})},
		{"filtered-scan", sqlast.SingleSelect(&sqlast.Select{
			Cols:  []sqlast.SelectItem{sqlast.Col("I", "name")},
			From:  []sqlast.FromItem{sqlast.From("Item", "I")},
			Where: sqlast.Eq(sqlast.ColRef{Table: "I", Column: "parentcode"}, sqlast.IntLit(1)),
		})},
		// Q2's pruned translation.
		{"index-join", sqlast.SingleSelect(&sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("IC", "category")},
			From: []sqlast.FromItem{sqlast.From("Item", "I"), sqlast.From("InCat", "IC")},
			Where: sqlast.Conj(
				sqlast.Eq(sqlast.ColRef{Table: "IC", Column: "parentid"}, sqlast.ColRef{Table: "I", Column: "id"}),
				sqlast.Eq(sqlast.ColRef{Table: "I", Column: "parentcode"}, sqlast.IntLit(1))),
		})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Execute(context.Background(), bc.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSkewBench ensures the default hash partitioner actually spreads the
// scale workload: with 24 documents on 4 shards no shard should be empty.
func TestHashPartitionerSpreads(t *testing.T) {
	xm := workloads.DefaultXMarkConfig()
	xm.ItemsPerContinent = 2
	docs := workloads.GenerateXMarkScale(xm, 24)
	c, err := sharded.NewMem(4, sharded.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(workloads.XMark(), docs...); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range m.DocsPerShard {
		if d == 0 {
			t.Errorf("shard %d received no documents: %v", i, m.DocsPerShard)
		}
	}
}
