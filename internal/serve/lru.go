package serve

import (
	"container/list"
	"sync"
	"time"

	"qkbfly/internal/stats"
)

// cache is an LRU with lazy TTL expiry — the one cache type behind the
// server's query, shard, run and pattern caches. It owns its
// locking, so it is safe for concurrent use, and counts capacity and TTL
// evictions under the counter names it was given (empty: not counted).
type cache[K comparable, V any] struct {
	capacity     int
	ttl          time.Duration    // 0 means no time-based expiry
	clock        func() time.Time // stamps insertions and judges expiry
	counters     *stats.CounterSet
	evictions    string
	ttlEvictions string

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type cacheItem[K comparable, V any] struct {
	key   K
	val   V
	added time.Time
}

// newCache returns a cache of the given capacity under the server's TTL
// and clock.
func newCache[K comparable, V any](capacity int, opt Options, counters *stats.CounterSet, evictions, ttlEvictions string) *cache[K, V] {
	return &cache[K, V]{
		capacity:     capacity,
		ttl:          opt.TTL,
		clock:        opt.Clock,
		counters:     counters,
		evictions:    evictions,
		ttlEvictions: ttlEvictions,
		ll:           list.New(),
		items:        make(map[K]*list.Element),
	}
}

func (c *cache[K, V]) count(name string) {
	if name != "" {
		c.counters.Add(name, 1)
	}
}

// get returns the live value for key and marks it most recently used.
// An entry that has outlived the TTL is dropped and reported missing.
func (c *cache[K, V]) get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	it := el.Value.(*cacheItem[K, V])
	if c.ttl > 0 && c.clock().Sub(it.added) >= c.ttl {
		c.removeLocked(el)
		c.count(c.ttlEvictions)
		return v, false
	}
	c.ll.MoveToFront(el)
	return it.val, true
}

// put inserts or replaces key as most recently used, stamped now. When
// the cache exceeds capacity, the least recently used entry is dropped.
func (c *cache[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		it := el.Value.(*cacheItem[K, V])
		it.val, it.added = val, now
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem[K, V]{key: key, val: val, added: now})
	if c.capacity > 0 && c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.count(c.evictions)
	}
}

func (c *cache[K, V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheItem[K, V]).key)
}

// len returns the number of entries held (expired ones included until a
// lookup notices them).
func (c *cache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// take removes and returns every entry whose key satisfies match,
// expired or not (an O(n) scan — used only by explicit invalidation and
// cache maintenance, never on the serving path).
func (c *cache[K, V]) take(match func(K) bool) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []V
	for k, el := range c.items {
		if match(k) {
			out = append(out, el.Value.(*cacheItem[K, V]).val)
			c.removeLocked(el)
		}
	}
	return out
}
