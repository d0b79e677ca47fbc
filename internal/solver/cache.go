package solver

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// Cache memoizes Solve results across Solver instances. The per-race
// classification engine gives every worker its own Solver (statistics
// stay per-race) but shares one Cache per analysis run: alternate
// executions of one race, and the multi-path explorations of different
// races over the same trace, re-issue large numbers of structurally
// identical queries, and the cache answers repeats without re-searching.
//
// Keys are the canonical form of a query: the flattened conjunct list
// (top-level ANDs split, constant-true conjuncts dropped — exactly the
// normalization Solve itself applies) plus the concolic hints of the
// variables occurring in the constraints. The key is a 64-bit structural
// hash folded from the conjuncts' memoized hashes (expr.Hash) and the
// sorted hint bindings — no string rendering, no allocation. A hash
// match alone is never trusted: candidate entries are verified conjunct
// by conjunct with expr.Equal (cheap: interned and DAG-shared nodes
// compare by pointer) and binding by binding, so a hit is guaranteed to
// be the exact query and reproduces what Solve would compute for that
// flat form. Solve is deterministic given (flat, hints, options), so
// cached answers are byte-identical to recomputed ones and the engine's
// verdicts cannot depend on cache warmth. Conjunct order is hashed and
// verified in order rather than sorted — two orderings of the same
// conjunct set are distinct computations, and collapsing them could make
// a cached run diverge from an uncached one.
//
// When full the cache evicts the least-recently-used entry instead of
// refusing the insert, so long traces whose query population drifts keep
// hitting on the current working set. Eviction only discards memoized
// time — an evicted query is simply re-searched, deterministically — so
// it can never change a verdict.
//
// A Cache must only be shared between Solvers built with the same
// Options (the engine derives every worker's solver from one configuration).
//
// Cache is safe for concurrent use; hit/miss/eviction statistics are
// atomic.
type Cache struct {
	mu   sync.Mutex
	m    map[uint64]*cacheEntry // bucket heads, chained on hash collision
	size int
	max  int

	// LRU list: head is most recently used, tail is next to evict.
	head, tail *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// hintBinding is one variable's concolic hint as captured in a key:
// bound reports whether the hint assignment contained the variable at
// all (an unbound variable is a different query than one hinted to any
// value).
type hintBinding struct {
	name  string
	val   int64
	bound bool
}

type cacheEntry struct {
	hash  uint64
	flat  []expr.Expr // the exact flattened conjuncts, in order
	binds []hintBinding
	model expr.Assignment // nil unless res == Sat
	res   Result

	chain      *cacheEntry // next entry with the same hash bucket
	prev, next *cacheEntry // LRU list
}

// DefaultCacheSize is the bound NewCache(0) selects.
const DefaultCacheSize = 8192

// NewCache returns a cache bounded to max entries (<= 0 selects
// DefaultCacheSize). When full, inserting evicts the least-recently-used
// entry.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{m: make(map[uint64]*cacheEntry), max: max}
}

// Len returns the number of memoized queries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Hits returns the number of lookups answered from the cache.
func (c *Cache) Hits() int { return int(c.hits.Load()) }

// Misses returns the number of lookups that required a fresh search.
func (c *Cache) Misses() int { return int(c.misses.Load()) }

// Evictions returns how many memoized queries were discarded to make
// room for new ones.
func (c *Cache) Evictions() int { return int(c.evictions.Load()) }

// queryHash folds the canonical form of a query into the 64-bit cache
// key: the ordered flat conjuncts' structural hashes and the hints of
// exactly the variables they mention. names must be sorted (Solve sorts
// its inventory), so the fold does not depend on map iteration order.
// The function allocates nothing; a regression guard in cache_test.go
// holds it to that.
func queryHash(flat []expr.Expr, names []string, hints expr.Assignment) uint64 {
	h := expr.HashList(flat)
	for _, n := range names {
		h = expr.Mix64(h ^ expr.HashString(n))
		if v, ok := hints[n]; ok {
			h = expr.Mix64(h ^ uint64(v) ^ 0x9e3779b97f4a7c15)
		} else {
			h = expr.Mix64(h ^ 0x8ebc6af09c88c6e3)
		}
	}
	return h
}

// matches verifies that an entry memoizes exactly this query: same
// conjuncts in the same order, same hint bindings. Hash collisions make
// this necessary for correctness; structural sharing makes it cheap.
func (e *cacheEntry) matches(flat []expr.Expr, names []string, hints expr.Assignment) bool {
	if len(e.flat) != len(flat) || len(e.binds) != len(names) {
		return false
	}
	for i, b := range e.binds {
		if b.name != names[i] {
			return false
		}
		v, ok := hints[b.name]
		if ok != b.bound || (ok && v != b.val) {
			return false
		}
	}
	for i, q := range e.flat {
		if !expr.Equal(q, flat[i]) {
			return false
		}
	}
	return true
}

// get looks up a memoized result and marks the entry most recently used.
// The returned model is a private copy.
func (c *Cache) get(hash uint64, flat []expr.Expr, names []string, hints expr.Assignment) (expr.Assignment, Result, bool) {
	c.mu.Lock()
	var e *cacheEntry
	for e = c.m[hash]; e != nil; e = e.chain {
		if e.matches(flat, names, hints) {
			break
		}
	}
	if e == nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	c.moveToFront(e)
	model := e.model
	res := e.res
	c.mu.Unlock()

	c.hits.Add(1)
	var out expr.Assignment
	if model != nil {
		out = make(expr.Assignment, len(model))
		for k, v := range model {
			out[k] = v
		}
	}
	return out, res, true
}

// put memoizes a result. flat and names are retained (Solve builds both
// fresh per query); the model is copied, so callers may keep mutating
// their own instance.
func (c *Cache) put(hash uint64, flat []expr.Expr, names []string, hints expr.Assignment, model expr.Assignment, res Result) {
	var stored expr.Assignment
	if model != nil {
		stored = make(expr.Assignment, len(model))
		for k, v := range model {
			stored[k] = v
		}
	}
	binds := make([]hintBinding, len(names))
	for i, n := range names {
		v, ok := hints[n]
		binds[i] = hintBinding{name: n, val: v, bound: ok}
	}
	e := &cacheEntry{hash: hash, flat: flat, binds: binds, model: stored, res: res}

	c.mu.Lock()
	defer c.mu.Unlock()
	for dup := c.m[hash]; dup != nil; dup = dup.chain {
		if dup.matches(flat, names, hints) {
			return
		}
	}
	if c.size >= c.max {
		c.evictLRU()
	}
	e.chain = c.m[hash]
	c.m[hash] = e
	c.pushFront(e)
	c.size++
}

// evictLRU drops the least-recently-used entry. Caller holds c.mu.
func (c *Cache) evictLRU() {
	victim := c.tail
	if victim == nil {
		return
	}
	c.unlink(victim)
	// Remove from the bucket chain.
	if head := c.m[victim.hash]; head == victim {
		if victim.chain == nil {
			delete(c.m, victim.hash)
		} else {
			c.m[victim.hash] = victim.chain
		}
	} else {
		for e := head; e != nil; e = e.chain {
			if e.chain == victim {
				e.chain = victim.chain
				break
			}
		}
	}
	victim.chain = nil
	c.size--
	c.evictions.Add(1)
}

// pushFront links e as most recently used. Caller holds c.mu.
func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds c.mu.
func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks e most recently used. Caller holds c.mu.
func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
