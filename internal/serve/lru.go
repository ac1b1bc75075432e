package serve

import (
	"container/list"
	"strings"
	"sync"
	"time"

	"qkbfly/internal/stats"
)

// cache is a string-keyed LRU with lazy TTL expiry — the one cache type
// behind the server's query, shard, run and pattern caches. It owns its
// locking, so it is safe for concurrent use, and counts capacity and TTL
// evictions under the counter names it was given (empty: not counted).
type cache[V any] struct {
	capacity     int
	ttl          time.Duration    // 0 means no time-based expiry
	clock        func() time.Time // stamps insertions and judges expiry
	counters     *stats.CounterSet
	evictions    string
	ttlEvictions string

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheItem[V any] struct {
	key   string
	val   V
	added time.Time
}

// newCache returns a cache of the given capacity under the server's TTL
// and clock.
func newCache[V any](capacity int, opt Options, counters *stats.CounterSet, evictions, ttlEvictions string) *cache[V] {
	return &cache[V]{
		capacity:     capacity,
		ttl:          opt.TTL,
		clock:        opt.Clock,
		counters:     counters,
		evictions:    evictions,
		ttlEvictions: ttlEvictions,
		ll:           list.New(),
		items:        make(map[string]*list.Element),
	}
}

func (c *cache[V]) count(name string) {
	if name != "" {
		c.counters.Add(name, 1)
	}
}

// get returns the live value for key and marks it most recently used.
// An entry that has outlived the TTL is dropped and reported missing.
func (c *cache[V]) get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	it := el.Value.(*cacheItem[V])
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
func (c *cache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		it := el.Value.(*cacheItem[V])
		it.val, it.added = val, now
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem[V]{key: key, val: val, added: now})
	if c.capacity > 0 && c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.count(c.evictions)
	}
}

func (c *cache[V]) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheItem[V]).key)
}

// len returns the number of entries held (expired ones included until a
// lookup notices them).
func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// takePrefix removes and returns every entry whose key starts with
// prefix, expired or not (an O(n) scan — used only by explicit
// invalidation and cache maintenance, never on the serving path).
func (c *cache[V]) takePrefix(prefix string) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []V
	for k, el := range c.items {
		if strings.HasPrefix(k, prefix) {
			out = append(out, el.Value.(*cacheItem[V]).val)
			c.removeLocked(el)
		}
	}
	return out
}

// clear drops every entry.
func (c *cache[V]) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}
