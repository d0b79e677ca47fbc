package solver

import "repro/internal/expr"

// This file is the durability boundary of the solver cache: Export hands
// the owning tier a structured, LRU-ordered view of every memoized query
// so it can be serialized, and Import rebuilds a cache from that view
// after a daemon restart. Exported expressions and models are the live
// stored values, handed out by reference — callers must treat them
// read-only. Import takes ownership of everything passed in.

// BindingExport is one hint binding of a memoized query.
type BindingExport struct {
	Name  string
	Val   int64
	Bound bool
}

// CacheEntryExport is one memoized query in export form.
type CacheEntryExport struct {
	Flat  []expr.Expr
	Binds []BindingExport
	Model expr.Assignment
	Res   Result
}

// CacheExport is the full serializable content of a Cache: the memoized
// entries in LRU order (most recently used first) and the lookup
// counters, so a restored cache evicts and reports exactly like the one
// that was saved.
type CacheExport struct {
	Entries []CacheEntryExport

	Hits      int64
	Misses    int64
	Evictions int64
}

// Export returns the cache's content for serialization, most recently
// used entry first.
func (c *Cache) Export() CacheExport {
	c.mu.Lock()
	defer c.mu.Unlock()
	x := CacheExport{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	if c.size > 0 {
		x.Entries = make([]CacheEntryExport, 0, c.size)
		for e := c.head; e != nil; e = e.next {
			binds := make([]BindingExport, len(e.binds))
			for i, b := range e.binds {
				binds[i] = BindingExport{Name: b.name, Val: b.val, Bound: b.bound}
			}
			x.Entries = append(x.Entries, CacheEntryExport{
				Flat:  e.flat,
				Binds: binds,
				Model: e.model,
				Res:   e.res,
			})
		}
	}
	return x
}

// Import replaces the cache's content with a previously exported one,
// taking ownership of the expressions and models in x. The cache keeps
// its own capacity; entries beyond it are dropped, oldest first.
func (c *Cache) Import(x CacheExport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[uint64]*cacheEntry)
	c.head, c.tail = nil, nil
	c.size = 0

	n := len(x.Entries)
	if n > c.max {
		n = c.max
	}
	// Insert in reverse (least recently used first): each pushFront lands
	// the entry at the head, so the restored list reproduces the exported
	// LRU order.
	for i := n - 1; i >= 0; i-- {
		ex := x.Entries[i]
		binds := make([]hintBinding, len(ex.Binds))
		names := make([]string, len(ex.Binds))
		hints := expr.Assignment{}
		for j, b := range ex.Binds {
			binds[j] = hintBinding{name: b.Name, val: b.Val, bound: b.Bound}
			names[j] = b.Name
			if b.Bound {
				hints[b.Name] = b.Val
			}
		}
		e := &cacheEntry{
			hash:  queryHash(ex.Flat, names, hints),
			flat:  ex.Flat,
			binds: binds,
			model: ex.Model,
			res:   ex.Res,
		}
		e.chain = c.m[e.hash]
		c.m[e.hash] = e
		c.pushFront(e)
		c.size++
	}
	c.hits.Store(x.Hits)
	c.misses.Store(x.Misses)
	c.evictions.Store(x.Evictions)
}

// Estimated per-entry footprint components, in bytes (pointers, list
// links, and map-bucket shares; expression nodes are shared and priced
// per flat conjunct rather than per node).
const (
	memCacheEntry = 128
	memConjunct   = 64
	memBinding    = 48
	memModelVar   = 48
)

// MemBytes estimates the heap footprint of the memoized entries.
func (c *Cache) MemBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for e := c.head; e != nil; e = e.next {
		n += memCacheEntry
		n += int64(len(e.flat)) * memConjunct
		n += int64(len(e.binds)) * memBinding
		n += int64(len(e.model)) * memModelVar
	}
	return n
}
