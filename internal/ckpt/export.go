package ckpt

import "slices"

// This file is the durability boundary of the checkpoint store: Export
// hands the owning tier a structured view of everything a store holds so
// it can be serialized, and Import rebuilds a store from that view after
// a daemon restart. Exported states and controllers are the store's own
// immutable entries, handed out by reference — callers must treat them
// read-only (encoding only reads). Import takes ownership of everything
// passed in; the caller must not retain or mutate it afterwards.

// Exported is the full serializable content of a Store: its entries in
// step order plus the thinning position and hit counters, so a restored
// store admits, thins, and reports exactly like the one that was saved.
type Exported struct {
	Entries []Entry
	Stride  int64
	Thinned int64
	Hits    int64
	Misses  int64
}

// Export returns the store's content for serialization. The returned
// states, controllers, and forks are the live stored entries: read-only.
func (s *Store) Export() Exported {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Exported{
		Entries: slices.Clone(s.entries),
		Stride:  s.stride,
		Thinned: s.thinned,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
	}
}

// Import replaces the store's content with a previously exported one,
// taking ownership of everything in x. Entries land without cloning and
// without stride admission (they were admitted when first stored); a
// duplicate step count and entries beyond the capacity bound are dropped.
func (s *Store) Import(x Exported) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = s.entries[:0]
	for _, e := range x.Entries {
		if len(s.entries) >= s.max {
			break
		}
		i := search(s.entries, e.State.Steps)
		if i < len(s.entries) && s.entries[i].State.Steps == e.State.Steps {
			continue
		}
		s.entries = slices.Insert(s.entries, i, e)
	}
	s.stride = x.Stride
	s.thinned = x.Thinned
	s.hits.Store(x.Hits)
	s.misses.Store(x.Misses)
}

// MemBytes estimates the heap footprint of all stored checkpoint and
// pending-fork states.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.entries {
		n += e.State.MemEstimate()
		for _, f := range e.Forks {
			n += f.State.MemEstimate()
		}
	}
	return n
}
