// Package sharded executes translated queries scatter-gather over a
// document-partitioned instance.
//
// Shredding is document-rooted: every root-to-leaf path of a translated
// UNION ALL branch stays inside one document, and parentid edges never cross
// documents. Partitioning the shredded relations by document therefore
// leaves every translated query embarrassingly scatter-gatherable: each
// shard holds a set of whole documents, the same SQL runs on every shard,
// and the global answer is the multiset concatenation of the shard answers
// in shard-then-branch order. Recursive-CTE plans need no cross-shard
// traffic either — the fixpoint follows parentid joins, which are closed
// within a document, so each shard's local fixpoint is the global fixpoint
// restricted to its documents and the per-iteration global merge round is
// provably empty. The differential suite holds sharded execution
// multiset-identical to a single store on every workload.
//
// Sharded implements backend.Backend and backend.DML, so the whole serving
// stack above it — Planner, plan cache, integrity audits, the update path,
// the network front end — composes unchanged. Loading continues one global
// elemid sequence across shards (shred.Shredder.SetNextID), so ids are
// byte-identical to a single-store load of the same documents; an id→shard
// router built from the per-document id ranges (plus ids minted by update
// batches) routes DML and integrity probes to the one shard that owns a
// write's footprint.
package sharded

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/xmltree"
)

// Partitioner assigns a document to a shard. docIndex is the document's
// global load ordinal (0-based, across Load calls); rootID is the elemid its
// root element is about to receive. The returned shard index is taken modulo
// the shard count, so a pathological partitioner cannot escape the topology
// (the skew stress test relies on that).
type Partitioner func(docIndex int, rootID int64) int

// HashPartitioner is the default placement: FNV-1a over the root id. With
// documents of similar size it spreads load evenly; the recorded per-shard
// row counts expose whatever skew the actual documents produce.
func HashPartitioner(_ int, rootID int64) int {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(rootID >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum64() % (1 << 31))
}

// Options tune a composite.
type Options struct {
	// Partitioner places documents on shards; nil means HashPartitioner.
	Partitioner Partitioner
	// Parallelism bounds concurrent shard executions per query; 0 derives
	// min(shards, GOMAXPROCS), 1 scatters serially.
	Parallelism int
}

// idRange maps a contiguous elemid interval [Lo, Hi] (one or more
// consecutively-loaded documents) to its owning shard.
type idRange struct {
	Lo, Hi int64
	Shard  int
}

// Sharded is a backend.Backend composite over N shard backends holding a
// document-partitioned instance. It is safe for concurrent use: queries
// scatter freely, loads and DML batches serialize on an internal mutex
// (matching the single-writer discipline of backend.Mem).
type Sharded struct {
	shards []backend.Backend
	part   Partitioner
	par    int

	// mu serializes loads and DML (router mutation); routerMu guards the
	// id→shard tables for concurrent readers (probes, routing) against them.
	mu       sync.Mutex
	routerMu sync.RWMutex
	schema   *schema.Schema
	nextID   int64 // next global elemid; 1-based like the shredder's
	ranges   []idRange
	extra    map[int64]int // ids minted by update batches
	docCount int
	docs     []int64 // documents placed per shard

	shredders []*shred.Shredder // per mem shard, reused across Load calls

	scatters   atomic.Int64
	mergeNs    atomic.Int64
	mergedRows atomic.Int64
}

// storeBacked is the capability of shards that expose their in-memory store
// directly (backend.Mem and wrappers embedding it): the loader shreds into
// the store in place and probes use its indexes.
type storeBacked interface {
	Store() *relational.Store
}

// storeLoader is the capability of shards that bulk-load an already-shredded
// staging store (backend.DB): the loader shreds into scratch and ships rows.
type storeLoader interface {
	LoadStore(staging *relational.Store) error
}

// New builds the composite over the given shard backends — each either
// store-backed (backend.Mem) or staging-loaded (backend.DB); mixing is
// allowed. The shards should be empty — load through the composite so ids
// and the router stay consistent.
func New(shards []backend.Backend, opts Options) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sharded: need at least one shard")
	}
	for i, sh := range shards {
		switch sh.(type) {
		case storeBacked, storeLoader:
		default:
			return nil, fmt.Errorf("sharded: shard %d: unsupported backend %T (want a store-backed or store-loading backend)", i, sh)
		}
	}
	part := opts.Partitioner
	if part == nil {
		part = HashPartitioner
	}
	return &Sharded{
		shards:    shards,
		part:      part,
		par:       opts.Parallelism,
		nextID:    1,
		extra:     map[int64]int{},
		docs:      make([]int64, len(shards)),
		shredders: make([]*shred.Shredder, len(shards)),
	}, nil
}

// NewMem builds the common all-in-memory topology: n fresh Mem shards.
func NewMem(n int, opts Options) (*Sharded, error) {
	shards := make([]backend.Backend, n)
	for i := range shards {
		shards[i] = backend.NewMem()
	}
	return New(shards, opts)
}

// Shards exposes the shard backends, in shard order.
func (c *Sharded) Shards() []backend.Backend { return c.shards }

// NumShards returns the topology width.
func (c *Sharded) NumShards() int { return len(c.shards) }

// SetEngineOptions forwards engine options to every shard that executes
// through the built-in engine.
func (c *Sharded) SetEngineOptions(opts engine.Options) {
	for _, sh := range c.shards {
		if m, ok := sh.(interface{ SetEngineOptions(engine.Options) }); ok {
			m.SetEngineOptions(opts)
		}
	}
}

// Name implements Backend, e.g. "sharded(4xmem)".
func (c *Sharded) Name() string {
	names := make([]string, 0, 2)
	uniform := true
	for _, sh := range c.shards {
		n := sh.Name()
		if len(names) == 0 {
			names = append(names, n)
		} else if names[len(names)-1] != n {
			names = append(names, n)
			uniform = false
		}
	}
	if uniform {
		return fmt.Sprintf("sharded(%dx%s)", len(c.shards), names[0])
	}
	return fmt.Sprintf("sharded(%d:%s)", len(c.shards), strings.Join(names, "|"))
}

// Topology identifies the shard layout for plan-cache keys: plans translated
// for one topology never alias plans for another (or for an unsharded
// backend), even through planner rebuilds.
func (c *Sharded) Topology() string { return c.Name() }

// EnsureSchema implements Backend by fanning out to every shard. The mapping
// is retained — partitioned loading and statistics probes need it.
func (c *Sharded) EnsureSchema(s *schema.Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sh := range c.shards {
		if err := sh.EnsureSchema(s); err != nil {
			return fmt.Errorf("sharded: shard %d: %w", i, err)
		}
	}
	c.schema = s
	return nil
}

// Load implements Backend: each document is placed on a shard by the
// partitioner and shredded there with the global id counter continued, so
// the assigned elemids are identical to a single-store load of the same
// document sequence — the invariant that makes sharded answers (which carry
// ids) byte-comparable to single-store answers.
func (c *Sharded) Load(s *schema.Schema, docs ...*xmltree.Document) ([]*shred.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schema == nil {
		for i, sh := range c.shards {
			if err := sh.EnsureSchema(s); err != nil {
				return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
			}
		}
		c.schema = s
	}

	// DB shards stage into a scratch store per Load call and bulk-insert at
	// the end (one transaction per shard); Mem shards shred in place.
	staging := make([]*relational.Store, len(c.shards))
	loadSh := make([]*shred.Shredder, len(c.shards))
	shredderFor := func(k int) (*shred.Shredder, error) {
		if loadSh[k] != nil {
			return loadSh[k], nil
		}
		if b, ok := c.shards[k].(storeBacked); ok {
			if c.shredders[k] == nil {
				sh, err := shred.NewShredder(s, b.Store(), shred.Options{})
				if err != nil {
					return nil, err
				}
				c.shredders[k] = sh
			}
			loadSh[k] = c.shredders[k]
			return loadSh[k], nil
		}
		store := relational.NewStore()
		staging[k] = store
		sh, err := shred.NewShredder(s, store, shred.Options{})
		if err != nil {
			return nil, err
		}
		loadSh[k] = sh
		return sh, nil
	}

	results := make([]*shred.Result, 0, len(docs))
	var newRanges []idRange
	touched := make([]bool, len(c.shards))
	for _, d := range docs {
		rootID := c.nextID
		k := c.part(c.docCount, rootID) % len(c.shards)
		if k < 0 {
			k = -k
		}
		sh, err := shredderFor(k)
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", k, err)
		}
		sh.SetNextID(rootID)
		r, err := sh.Shred(d)
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: shred: %w", k, err)
		}
		c.nextID = sh.NextID()
		c.docCount++
		c.docs[k]++
		touched[k] = true
		results = append(results, r)
		if hi := c.nextID - 1; hi >= rootID {
			if n := len(newRanges); n > 0 && newRanges[n-1].Shard == k && newRanges[n-1].Hi == rootID-1 {
				newRanges[n-1].Hi = hi // coalesce consecutive docs on one shard
			} else {
				newRanges = append(newRanges, idRange{Lo: rootID, Hi: hi, Shard: k})
			}
		}
	}

	for k, st := range staging {
		if st == nil {
			continue
		}
		if err := c.shards[k].(storeLoader).LoadStore(st); err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", k, err)
		}
	}
	for k, t := range touched {
		if !t {
			continue
		}
		if m, ok := c.shards[k].(storeBacked); ok {
			if err := m.Store().BuildJoinIndexes(schema.ParentIDColumn); err != nil {
				return nil, fmt.Errorf("sharded: shard %d: %w", k, err)
			}
		}
	}

	c.routerMu.Lock()
	c.ranges = append(c.ranges, newRanges...)
	c.routerMu.Unlock()
	return results, nil
}

// AdoptLoaded rebuilds the id→shard router by scanning the shards' stores,
// for composites whose shard contents were populated outside Load — the
// durable serving path recovers each shard store from its own write-ahead
// log, then adopts: every found id registers to its shard, the global id
// counter moves past the maximum, and per-shard document counts are restored
// from the root tuples (NULL parentid). Requires store-backed shards.
func (c *Sharded) AdoptLoaded(s *schema.Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schema == nil {
		c.schema = s
	}
	c.routerMu.Lock()
	defer c.routerMu.Unlock()
	for k, sh := range c.shards {
		sb, ok := sh.(storeBacked)
		if !ok {
			return fmt.Errorf("sharded: shard %d (%s): AdoptLoaded requires store-backed shards", k, sh.Name())
		}
		store := sb.Store()
		for _, rel := range store.TableNames() {
			t := store.Table(rel)
			ts := t.Schema()
			idIdx := ts.ColumnIndex(schema.IDColumn)
			if idIdx < 0 {
				continue
			}
			pidIdx := ts.ColumnIndex(schema.ParentIDColumn)
			for _, row := range t.SortedRows() {
				if row[idIdx].Kind() != relational.KindInt {
					continue
				}
				id := row[idIdx].AsInt()
				c.extra[id] = k
				if id >= c.nextID {
					c.nextID = id + 1
				}
				if pidIdx >= 0 && row[pidIdx].IsNull() {
					c.docs[k]++
					c.docCount++
				}
			}
		}
	}
	return nil
}

// shardOf resolves the shard owning an elemid, or -1 when the id is unknown
// to the router (never loaded, e.g. a dangling parent reference).
func (c *Sharded) shardOf(id int64) int {
	c.routerMu.RLock()
	defer c.routerMu.RUnlock()
	// Load-time ranges are appended in increasing Lo order; binary search.
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].Hi >= id })
	if i < len(c.ranges) && c.ranges[i].Lo <= id {
		return c.ranges[i].Shard
	}
	if k, ok := c.extra[id]; ok {
		return k
	}
	return -1
}

// registerIDs records update-minted ids on their owning shard and keeps the
// global counter above them, so a later Load can never re-assign one.
func (c *Sharded) registerIDs(ids []int64, shard int) {
	if len(ids) == 0 {
		return
	}
	c.routerMu.Lock()
	for _, id := range ids {
		c.extra[id] = shard
		if id >= c.nextID {
			c.nextID = id + 1
		}
	}
	c.routerMu.Unlock()
}

// Execute implements Backend: the query scatters to every shard (bounded
// worker pool, each shard running its full plan — including any recursive
// CTE's local fixpoint — on its own engine), and the shard answers are
// concatenated in shard order. Mem shards stop before their projection
// (Mem.Prepare), so the gather projects each answer row once, straight
// into the composite's answer; other shards' results are copied in as they
// are. Within a shard the engine's deterministic branch order applies, so
// the global row order is shard-then-branch, and the composite's Work is
// the sum of the shards'. The first shard error (or ctx cancellation)
// cancels the remaining workers and is returned.
func (c *Sharded) Execute(ctx context.Context, q *sqlast.Query) (*engine.Result, error) {
	c.scatters.Add(1)
	n := len(c.shards)
	prepared := make([]*engine.Prepared, n)
	errs := make([]error, n)

	workers := c.par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				p, err := c.prepare(ctx, i, q)
				if err != nil {
					errs[i] = fmt.Errorf("sharded: shard %d: %w", i, err)
					cancel() // tear the scatter down promptly
					return
				}
				prepared[i] = p
			}
		}()
	}
	wg.Wait()

	// The first error that is not the scatter's own cancellation is the
	// cause; siblings its teardown cancelled report only that. Shard errors
	// wrap their cause with %w, so an error whose text merely mentions
	// cancellation is still a real failure.
	ctxErr := ctx.Err()
	for _, err := range errs {
		if err != nil && (ctxErr == nil || !errors.Is(err, ctxErr)) {
			return nil, err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}

	start := time.Now()
	res := &engine.Result{}
	total := 0
	for _, p := range prepared {
		total += p.Len()
		if res.Cols == nil {
			res.Cols = p.Cols
		}
		res.Work.Scanned += p.Work.Scanned
		res.Work.Examined += p.Work.Examined
		res.Work.Materialized += p.Work.Materialized
	}
	// A 1-shard composite's answer is built as its shard's own would be;
	// a wider one's is allocated once and each shard projected into it.
	if n > 1 {
		res.Rows = make([]relational.Row, 0, total)
	}
	for _, p := range prepared {
		res.Rows = p.AppendRows(res.Rows)
	}
	c.mergeNs.Add(time.Since(start).Nanoseconds())
	c.mergedRows.Add(int64(total))
	return res, nil
}

// prepare runs q on shard i up to its projection: a Mem shard through its
// engine, any other as a finished result.
func (c *Sharded) prepare(ctx context.Context, i int, q *sqlast.Query) (*engine.Prepared, error) {
	if m, ok := c.shards[i].(*backend.Mem); ok {
		return m.Prepare(ctx, q)
	}
	res, err := c.shards[i].Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	return engine.Finished(res), nil
}

// Close implements Backend, closing every shard and returning the first
// error.
func (c *Sharded) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Metrics is a point-in-time snapshot of the composite's scatter-gather
// counters plus the per-shard placement (documents and rows per shard — the
// skew record the benchmark publishes).
type Metrics struct {
	Shards int `json:"shards"`
	// DocsPerShard and RowsPerShard expose placement skew.
	DocsPerShard []int64 `json:"docs_per_shard"`
	RowsPerShard []int64 `json:"rows_per_shard"`
	// Scatters counts Execute calls (each fans out to every shard).
	Scatters int64 `json:"scatters"`
	// MergeNs is the cumulative time spent allocating the answers and
	// projecting the shards into them; MergedRows the rows so projected.
	MergeNs    int64 `json:"merge_ns"`
	MergedRows int64 `json:"merged_rows"`
}

// Metrics snapshots the counters. Row counts are scanned live from Mem
// shards and probed with per-relation SELECTs from DB shards.
func (c *Sharded) Metrics(ctx context.Context) (Metrics, error) {
	m := Metrics{
		Shards:     len(c.shards),
		Scatters:   c.scatters.Load(),
		MergeNs:    c.mergeNs.Load(),
		MergedRows: c.mergedRows.Load(),
	}
	c.mu.Lock()
	m.DocsPerShard = append([]int64(nil), c.docs...)
	s := c.schema
	c.mu.Unlock()
	for i, sh := range c.shards {
		switch b := sh.(type) {
		case storeBacked:
			m.RowsPerShard = append(m.RowsPerShard, int64(b.Store().TotalRows()))
		default:
			if s == nil {
				m.RowsPerShard = append(m.RowsPerShard, 0)
				continue
			}
			var total int64
			for _, rel := range s.Relations() {
				sel := sqlast.SingleSelect(&sqlast.Select{
					Cols: []sqlast.SelectItem{sqlast.Col(rel, schema.IDColumn)},
					From: []sqlast.FromItem{sqlast.From(rel, rel)},
				})
				res, err := b.Execute(ctx, sel)
				if err != nil {
					return m, fmt.Errorf("sharded: shard %d: count %s: %w", i, rel, err)
				}
				total += int64(res.Len())
			}
			m.RowsPerShard = append(m.RowsPerShard, total)
		}
	}
	return m, nil
}
