package ckpt

import "repro/internal/vm"

// This file is the durability boundary of the checkpoint stores: Export
// hands the owning tier a structured view of everything a store holds so
// it can be serialized, and Import rebuilds a store from that view after
// a daemon restart. Exported states and controllers are the store's own
// immutable entries, handed out by reference — callers must treat them
// read-only (encoding only reads). Import takes ownership of everything
// passed in; the caller must not retain or mutate it afterwards.

// ExportedEntry is one concrete checkpoint in export form.
type ExportedEntry struct {
	Steps int64
	State *vm.State
	Ctl   vm.CloneableController
}

// ExportedStore is the full serializable content of a concrete Store:
// its entries plus the thinning position and hit counters, so a restored
// store admits, thins, and reports exactly like the one that was saved.
type ExportedStore struct {
	Entries []ExportedEntry
	Stride  int64
	Thinned int64
	Hits    int64
	Misses  int64
}

// Export returns the store's content for serialization. The returned
// states and controllers are the live stored entries: read-only.
func (s *Store) Export() ExportedStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	x := ExportedStore{
		Stride:  s.tab.stride,
		Thinned: s.tab.thinned,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
	}
	if len(s.tab.entries) > 0 {
		x.Entries = make([]ExportedEntry, 0, len(s.tab.entries))
		for _, e := range s.tab.entries {
			x.Entries = append(x.Entries, ExportedEntry{Steps: e.steps, State: e.payload.state, Ctl: e.payload.ctl})
		}
	}
	return x
}

// Import replaces the store's content with a previously exported one,
// taking ownership of the states and controllers in x. Entries land
// without cloning and without stride admission (they were admitted when
// first stored); entries beyond the capacity bound are dropped.
func (s *Store) Import(x ExportedStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.entries = s.tab.entries[:0]
	for _, e := range x.Entries {
		if len(s.tab.entries) >= s.tab.max {
			break
		}
		i := s.tab.search(e.Steps)
		if i < len(s.tab.entries) && s.tab.entries[i].steps == e.Steps {
			continue
		}
		s.tab.entries = append(s.tab.entries, tabEntry[centry]{})
		copy(s.tab.entries[i+1:], s.tab.entries[i:])
		s.tab.entries[i] = tabEntry[centry]{steps: e.Steps, payload: centry{state: e.State, ctl: e.Ctl}}
	}
	s.tab.stride = x.Stride
	s.tab.thinned = x.Thinned
	s.hits.Store(x.Hits)
	s.misses.Store(x.Misses)
}

// MemBytes estimates the heap footprint of all stored checkpoint states.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.tab.entries {
		n += e.payload.state.MemEstimate()
	}
	return n
}

// ExportedSymEntry is one symbolic mainline checkpoint in export form.
type ExportedSymEntry struct {
	Steps int64
	State *vm.State
	Ctl   vm.CloneableController
	Forks []PendingFork

	Branches  int
	ForksUsed int
	Dropped   int
}

// ExportedSymStore is the full serializable content of a SymStore:
// entries, thinning position, and hit counters.
type ExportedSymStore struct {
	Entries []ExportedSymEntry
	Stride  int64
	Thinned int64
	Hits    int64
	Misses  int64
}

// Export returns the symbolic store's content for serialization. States,
// controllers, and fork payloads are the live stored entries: read-only.
func (s *SymStore) Export() ExportedSymStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	x := ExportedSymStore{
		Stride:  s.tab.stride,
		Thinned: s.tab.thinned,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
	}
	if len(s.tab.entries) > 0 {
		x.Entries = make([]ExportedSymEntry, 0, len(s.tab.entries))
		for _, e := range s.tab.entries {
			x.Entries = append(x.Entries, ExportedSymEntry{
				Steps:     e.steps,
				State:     e.payload.state,
				Ctl:       e.payload.ctl,
				Forks:     e.payload.forks,
				Branches:  e.payload.branches,
				ForksUsed: e.payload.forksUsed,
				Dropped:   e.payload.dropped,
			})
		}
	}
	return x
}

// Import replaces the symbolic store's content with a previously
// exported one, taking ownership of everything in x.
func (s *SymStore) Import(x ExportedSymStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.entries = s.tab.entries[:0]
	for _, e := range x.Entries {
		if len(s.tab.entries) >= s.tab.max {
			break
		}
		i := s.tab.search(e.Steps)
		if i < len(s.tab.entries) && s.tab.entries[i].steps == e.Steps {
			continue
		}
		s.tab.entries = append(s.tab.entries, tabEntry[symEntry]{})
		copy(s.tab.entries[i+1:], s.tab.entries[i:])
		s.tab.entries[i] = tabEntry[symEntry]{steps: e.Steps, payload: symEntry{
			state:     e.State,
			ctl:       e.Ctl,
			forks:     e.Forks,
			branches:  e.Branches,
			forksUsed: e.ForksUsed,
			dropped:   e.Dropped,
		}}
	}
	s.tab.stride = x.Stride
	s.tab.thinned = x.Thinned
	s.hits.Store(x.Hits)
	s.misses.Store(x.Misses)
}

// MemBytes estimates the heap footprint of all stored mainline and
// pending-fork states.
func (s *SymStore) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.tab.entries {
		n += e.payload.state.MemEstimate()
		for _, f := range e.payload.forks {
			n += f.State.MemEstimate()
		}
	}
	return n
}
