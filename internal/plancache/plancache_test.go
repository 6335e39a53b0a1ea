package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func key(fp, q string) Key { return Key{SchemaFP: fp, Query: q} }

func TestGetPut(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(key("s", "//a")); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key("s", "//a"), "plan-a")
	v, ok := c.Get(key("s", "//a"))
	if !ok || v.(string) != "plan-a" {
		t.Fatalf("got (%v, %v), want (plan-a, true)", v, ok)
	}
	// Same query under a different schema fingerprint is a different plan.
	if _, ok := c.Get(key("s2", "//a")); ok {
		t.Fatal("fingerprint not part of the key")
	}
	// Same for different options.
	if _, ok := c.Get(Key{SchemaFP: "s", Query: "//a", Options: "unroll=7"}); ok {
		t.Fatal("options not part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 3 misses, 1 entry", st)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(64)
	k := key("s", "//a")
	c.Put(k, "v1")
	c.Put(k, "v2")
	if v, _ := c.Get(k); v.(string) != "v2" {
		t.Fatalf("got %v, want v2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 2*numShards means two entries per shard: the third key landing
	// in one shard must evict that shard's least recently used entry.
	c := New(2 * numShards)
	var same []Key
	probe := key("fp", "probe")
	s := c.shardFor(probe)
	for i := 0; len(same) < 3; i++ {
		k := key("fp", fmt.Sprintf("q%d", i))
		if c.shardFor(k) == s {
			same = append(same, k)
		}
	}
	c.Put(same[0], 0)
	c.Put(same[1], 1)
	// Touch same[0] so same[1] is the LRU entry when same[2] evicts.
	if _, ok := c.Get(same[0]); !ok {
		t.Fatal("expected hit on same[0]")
	}
	c.Put(same[2], 2)
	if _, ok := c.Get(same[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(same[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(same[2]); !ok {
		t.Fatal("new entry missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionCounter(t *testing.T) {
	c := New(numShards) // one entry per shard: every same-shard Put evicts
	probe := key("fp", "probe")
	s := c.shardFor(probe)
	var last Key
	n := 0
	for i := 0; n < 5; i++ {
		k := key("fp", fmt.Sprintf("q%d", i))
		if c.shardFor(k) != s {
			continue
		}
		c.Put(k, i)
		last = k
		n++
	}
	if st := c.Stats(); st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
	// Refreshing an existing key and purging must not count as evictions.
	c.Put(last, "refreshed")
	c.Purge()
	if st := c.Stats(); st.Evictions != 4 {
		t.Fatalf("refresh/purge changed evictions: got %d, want 4", st.Evictions)
	}
}

func TestPurge(t *testing.T) {
	c := New(64)
	for i := 0; i < 10; i++ {
		c.Put(key("s", fmt.Sprintf("q%d", i)), i)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after purge = %d", c.Len())
	}
	if _, ok := c.Get(key("s", "q3")); ok {
		t.Fatal("purged entry still present")
	}
}

// TestConcurrent exercises the cache from many goroutines; run with -race.
func TestConcurrent(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key("s", fmt.Sprintf("q%d", i%50))
				if v, ok := c.Get(k); ok {
					if v.(int) != i%50 {
						t.Errorf("goroutine %d: got %v for %v", g, v, k)
						return
					}
				} else {
					c.Put(k, i%50)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
}
