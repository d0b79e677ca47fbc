// Package ckpt implements the shared replay-checkpoint store behind
// Portend's classification engine.
//
// Every race classification replays the recorded schedule trace from the
// program's initial state to the race's first racing access (Algorithm 1
// lines 1–4). Replay is deterministic — the same trace position and the
// same machine state always produce the same continuation — so the
// concrete state reached at one race's pre-race point is a valid starting
// point for any later race's replay. The engine exploits that with one
// Store per recorded trace: the detection phase deposits replay snapshots
// as it walks the trace (each new race cluster's detection point, plus a
// periodic cadence) and classification replays deposit their own
// pre-race points; subsequent replays — and multi-path explorations whose
// skipped prefix is symbolic-safe — resume from the nearest prior
// snapshot instead of the root, turning the O(R × trace-length) cost of
// classifying R races into roughly one pass over the trace.
//
// Entries are immutable after Add: both Add and Resume hand out private
// snapshots (vm.State.Clone and vm.CloneableController.CloneCtl), so any
// number of classification workers can resume from one entry
// concurrently. Since the state moved to persistent copy-on-write
// structures a snapshot is O(1) — a pointer-sized State header plus a
// fresh epoch — and isolation comes from the VM's write barriers, not
// from copying: the stored entry and every resumed clone share structure
// until one of them writes. Correctness requirements — the snapshot must lie on the
// recorded replay path, and its observers must carry everything the
// resuming analysis needs about the skipped prefix — are the caller's
// responsibility; the accept callback of Resume is where the caller
// rejects entries whose prefix it cannot reconstruct.
package ckpt

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vm"
)

// DefaultMax is the entry bound of the engine's checkpoint store.
const DefaultMax = 64

// Entry is one checkpoint, filed under State.Steps: a state parked on
// the recorded schedule and the controller that continues it.
type Entry struct {
	State *vm.State
	Ctl   vm.Controller
}

// clone returns a private copy of e: the state and the controller, both
// cloned copy-on-write. ok is false if the controller is not cloneable —
// such a snapshot cannot be replayed faithfully, so the entry is
// unusable.
func (e Entry) clone() (Entry, bool) {
	cc, ok := e.Ctl.(vm.CloneableController)
	if !ok {
		return Entry{}, false
	}
	return Entry{State: e.State.Clone(), Ctl: cc.CloneCtl()}, true
}

// Store holds the checkpoints of one recorded trace, sorted by the global
// instruction count at which they were taken. It is safe for concurrent
// use by the parallel classification engine.
//
// When the store reaches capacity it thins instead of refusing: every
// other entry is dropped (halving the population while keeping it spread
// across the trace) and the minimum step gap between retained entries
// rises, so subsequent inserts that would re-crowd an already-covered
// region are rejected cheaply. Long traces therefore keep a bounded,
// roughly stride-uniform set of resume points instead of dense coverage
// of the trace prefix and nothing beyond it. Thinning only discards
// memoized replay time — a dropped checkpoint means the nearest earlier
// one (or the root) is used — so it can never change a verdict.
//
// Thinning is transactional: the survivors are built aside and replace
// the stored entries only if the incoming entry is admissible among them,
// so a doomed insert never costs stored checkpoints.
type Store struct {
	mu      sync.Mutex
	entries []Entry
	max     int
	stride  int64 // minimum step gap enforced between entries; grows on thinning
	thinned int64 // entries dropped by capacity thinning

	hits   atomic.Int64
	misses atomic.Int64
}

// NewStore returns a store bounded to max entries (the engine uses
// DefaultMax). The store is a cache, never an obligation: at capacity it
// thins existing entries by stride rather than growing.
func NewStore(max int) *Store {
	return &Store{max: max}
}

// search returns the insertion index for steps in es (the first entry at
// or past steps).
func search(es []Entry, steps int64) int {
	return sort.Search(len(es), func(i int) bool { return es[i].State.Steps >= steps })
}

// admissible reports whether an entry at steps may be inserted into es
// at index i (its search position) under the given stride: not a
// duplicate, and at least stride steps from both sorted neighbors.
func admissible(es []Entry, i int, steps, stride int64) bool {
	if i < len(es) && es[i].State.Steps == steps {
		return false
	}
	if stride > 0 {
		if i > 0 && steps-es[i-1].State.Steps < stride {
			return false
		}
		if i < len(es) && es[i].State.Steps-steps < stride {
			return false
		}
	}
	return true
}

// insert files e under its step count, thinning when the store is full.
// A refused insert — duplicate, inside the current stride of a neighbor,
// or inadmissible among the survivors of a thinning — leaves the store
// untouched. The caller holds s.mu.
func (s *Store) insert(e Entry) {
	steps := e.State.Steps
	i := search(s.entries, steps)
	if !admissible(s.entries, i, steps, s.stride) {
		return
	}
	if len(s.entries) >= s.max {
		// The survivors are the entries at even indices; the stride rises
		// to the smallest surviving gap, or doubles.
		kept := make([]Entry, 0, s.max)
		for j := 0; j < len(s.entries); j += 2 {
			kept = append(kept, s.entries[j])
		}
		if len(kept) >= s.max {
			// Thinning cannot open a slot (max <= 1): the bound is a hard
			// promise, so the insert is refused.
			return
		}
		minGap := int64(0)
		for j := 1; j < len(kept); j++ {
			if g := kept[j].State.Steps - kept[j-1].State.Steps; minGap == 0 || g < minGap {
				minGap = g
			}
		}
		stride := s.stride
		switch {
		case minGap > stride*2:
			stride = minGap
		case stride > 0:
			stride *= 2
		default:
			stride = 1
		}
		i = search(kept, steps)
		if !admissible(kept, i, steps, stride) {
			return
		}
		s.thinned += int64(len(s.entries) - len(kept))
		s.entries, s.stride = kept, stride
	}
	s.entries = slices.Insert(s.entries, i, e)
}

// Len returns the number of stored checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Steps returns the step counts of the stored checkpoints, ascending:
// the positions a later run of the same trace can park at to deposit
// the same checkpoints again.
func (s *Store) Steps() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.State.Steps
	}
	return out
}

// Hits returns how many Resume calls found a usable checkpoint.
func (s *Store) Hits() int { return int(s.hits.Load()) }

// Misses returns how many Resume calls found none.
func (s *Store) Misses() int { return int(s.misses.Load()) }

// Thinned returns how many stored checkpoints capacity thinning dropped.
func (s *Store) Thinned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.thinned)
}

// Stride returns the current minimum step gap between entries (0 until
// the first thinning).
func (s *Store) Stride() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stride
}

// Add snapshots e at e.State.Steps. The state and the controller are
// cloned copy-on-write (O(1) each, not a deep copy), so the caller keeps
// running its own copies untouched while the stored entry stays frozen
// behind the state's write barriers. A duplicate step count or one
// closer than the thinning stride to an existing neighbor is refused
// cheaply, before any cloning; an entry with an uncloneable controller,
// or one a capacity thinning could not make room for, is refused too —
// and a refused Add never thins: stored checkpoints are only dropped
// when the incoming entry actually lands.
func (s *Store) Add(e Entry) {
	steps := e.State.Steps
	s.mu.Lock()
	ok := admissible(s.entries, search(s.entries, steps), steps, s.stride)
	s.mu.Unlock()
	if !ok {
		return
	}

	// Clone outside the lock: cloning only reads e, and a racing Add of
	// the same step is harmless (the second insert is refused below).
	c, ok := e.clone()
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(c)
}

// Resume returns a private clone of the latest checkpoint taken at or
// before limit that the accept callback approves, together with its step
// count. accept (nil means "accept everything") inspects the stored state
// read-only — this is where the caller verifies the skipped prefix is
// reconstructible (observer state, symbolic-input safety). ok is false
// when no entry qualifies.
func (s *Store) Resume(limit int64, accept func(*vm.State) bool) (e Entry, steps int64, ok bool) {
	s.mu.Lock()
	for i := search(s.entries, limit+1) - 1; i >= 0; i-- {
		if accept == nil || accept(s.entries[i].State) {
			e, ok = s.entries[i], true
			break
		}
	}
	s.mu.Unlock()

	if !ok {
		s.misses.Add(1)
		return Entry{}, 0, false
	}
	s.hits.Add(1)
	// Clone outside the lock; entries are immutable, State.Clone is safe
	// for concurrent readers, and stored controllers are always cloneable.
	e, _ = e.clone()
	return e, e.State.Steps, true
}
