// Package plancache is a sharded LRU cache for translated query plans.
//
// The serving workload the ROADMAP targets is many concurrent clients
// issuing a small set of hot path expressions against a slowly-changing
// mapping. Translation (PathId cross-product + pruning) is pure and depends
// only on (schema, query shape, translate options) — a predicate value only
// ever becomes a literal of the SQL (plan.go) — so its result can be reused
// across requests as long as the mapping is unchanged. Keys therefore embed
// a structural schema fingerprint (schema.Fingerprint): when the mapping
// changes, new requests carry a new fingerprint and simply stop hitting the
// stale entries, which age out of the LRU — no explicit invalidation
// protocol is needed.
//
// The cache is safe for concurrent use. It is sharded by key hash with one
// mutex per shard so that unrelated queries do not contend on a single lock;
// hit/miss counters are atomics shared across shards.
package plancache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Key identifies one cached translation.
type Key struct {
	// SchemaFP is the structural fingerprint of the mapping the plan was
	// translated against (schema.Fingerprint()).
	SchemaFP string
	// Query is the path expression's shape (pathexpr.Shape): the text with
	// its predicate values replaced by numbered slots, so that texts that
	// differ only in those values share one entry. A text whose values may
	// not bind another's plan (see Bindable) is keyed by itself; no valid
	// text equals a shape with a slot, so the two kinds never collide.
	Query string
	// Options encodes the translate options the plan was produced under
	// (plans for different option sets must not alias). The Planner derives
	// it by printing core.Options, so every flag that changes the emitted
	// SQL is part of the key automatically; safe-mode plans share one
	// "safe-mode" key, since the baseline translator takes no options.
	Options string
}

// numShards is a power of two; with a mutex per shard, concurrent
// callers on different keys rarely contend.
const numShards = 16

// Cache is a sharded, bounded LRU mapping Key -> cached plan. The zero value
// is not usable; call New.
type Cache struct {
	shards    [numShards]shard
	seed      maphash.Seed
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
}

type entry struct {
	key   Key
	value any
}

// DefaultCapacity is the total entry budget used when New is given a
// non-positive capacity. Hot serving sets are small (a handful of path
// expressions per application); 1024 leaves generous room for multi-tenant
// schemas.
const DefaultCapacity = 1024

// New creates a cache holding at most capacity entries in total (rounded up
// to a multiple of the shard count).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[Key]*list.Element)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.SchemaFP)
	h.WriteByte(0)
	h.WriteString(k.Query)
	h.WriteByte(0)
	h.WriteString(k.Options)
	return &c.shards[h.Sum64()&(numShards-1)]
}

// Get returns the cached plan for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	v, ok := c.peek(k)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// peek is Get without counting: a hit marks k most recently used, a miss
// counts nothing.
func (c *Cache) peek(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.items[k]
	var v any
	if ok {
		s.ll.MoveToFront(el)
		// Copy the value while still holding the lock: Put on an existing
		// key overwrites entry.value under the same lock, so reading it
		// after unlock would race with a concurrent refresh.
		v = el.Value.(*entry).value
	}
	s.mu.Unlock()
	return v, ok
}

// Put stores v under k, evicting the least recently used entry of the key's
// shard if the shard is full. Storing an existing key refreshes its value
// and recency.
func (c *Cache) Put(k Key, v any) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*entry).value = v
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.items, oldest.Value.(*entry).key)
			c.evictions.Add(1)
		}
	}
	s.items[k] = s.ll.PushFront(&entry{key: k, value: v})
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry (counters are preserved).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.items = make(map[Key]*list.Element)
		s.mu.Unlock()
	}
}

// Stats is a point-in-time counter snapshot. The JSON tags are the wire
// names the serving front end reports per tenant on /stats.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by LRU capacity pressure (Purge and
	// key refreshes do not count). A growing rate under a steady workload
	// means the hot set no longer fits and the capacity needs raising.
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// Stats returns the cache's hit/miss/eviction counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
