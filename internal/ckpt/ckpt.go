// Package ckpt implements the shared replay-checkpoint stores behind
// Portend's classification engine.
//
// Every race classification replays the recorded schedule trace from the
// program's initial state to the race's first racing access (Algorithm 1
// lines 1–4). Replay is deterministic — the same trace position and the
// same machine state always produce the same continuation — so the
// concrete state reached at one race's pre-race point is a valid starting
// point for any later race's replay. The package exploits that twice:
//
//   - Store holds concrete replay snapshots. The detection phase deposits
//     them as it walks the trace (each new race cluster's detection point,
//     plus a periodic cadence) and classification replays deposit their
//     own pre-race points; subsequent replays resume from the nearest
//     prior snapshot instead of the root, turning the O(R × trace-length)
//     cost of classifying R races into roughly one pass over the trace.
//   - SymStore holds snapshots of the multi-path exploration mainline —
//     the symbolic execution that follows the recorded schedule — together
//     with the sibling states pending in the fork queue and the
//     exploration counters of the skipped prefix. Concrete snapshots
//     whose prefix consumed a symbolic input can never seed symbolic
//     re-execution (the consumed read would stay concrete); mainline
//     snapshots carry the minted symbols, path condition, and pending
//     forks, so explorations of later races resume past the
//     symbolic-input frontier.
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
	"sync"
	"sync/atomic"

	"repro/internal/vm"
)

// tabEntry is one slot of the bounded table: a payload filed under the
// global completed-instruction count at which its snapshot was taken.
type tabEntry[P any] struct {
	steps   int64
	payload P
}

// table is the bounded, steps-sorted, stride-thinned container shared by
// the concrete Store and the symbolic SymStore. It is not goroutine-safe;
// the owning store serializes access.
//
// When the table reaches capacity it thins instead of refusing: every
// other entry is dropped (halving the population while keeping it spread
// across the trace) and the minimum step gap between retained entries
// doubles, so subsequent inserts that would re-crowd an already-covered
// region are rejected cheaply. Long traces therefore keep a bounded,
// roughly stride-uniform set of resume points instead of dense coverage
// of the trace prefix and nothing beyond it. Thinning only discards
// memoized replay time — a dropped checkpoint means the nearest earlier
// one (or the root) is used — so it can never change a verdict.
//
// Thinning is transactional: it happens inside insert, and only when the
// incoming entry actually lands. An insert the post-thinning stride would
// disqualify is refused up front and the table is left untouched, so a
// doomed insert never costs stored checkpoints.
type table[P any] struct {
	entries []tabEntry[P]
	max     int
	stride  int64 // minimum step gap enforced between entries; grows on thinning
	thinned int64 // entries dropped by capacity thinning
}

// search returns the insertion index for steps (first entry >= steps).
func (t *table[P]) search(steps int64) int {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.entries[mid].steps < steps {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// admissibleAt reports whether an entry at steps may be inserted under
// the given stride: not a duplicate, and at least stride steps from both
// sorted neighbors. i is the insertion index for steps.
func (t *table[P]) admissibleAt(i int, steps, stride int64) bool {
	if i < len(t.entries) && t.entries[i].steps == steps {
		return false
	}
	if stride > 0 {
		if i > 0 && steps-t.entries[i-1].steps < stride {
			return false
		}
		if i < len(t.entries) && t.entries[i].steps-steps < stride {
			return false
		}
	}
	return true
}

// admissible reports whether an entry at steps is insertable as the table
// stands (ignoring capacity). Stores use it as the cheap pre-check before
// paying for a snapshot clone.
func (t *table[P]) admissible(steps int64) bool {
	return t.admissibleAt(t.search(steps), steps, t.stride)
}

// thinPlan computes the outcome thinning would have — survivors are the
// entries at even indices, and the stride rises to the smallest surviving
// gap (or doubles) — and reports whether an entry at steps would be
// admissible afterwards. Nothing is mutated: the plan lets insert refuse
// a doomed entry without discarding stored checkpoints.
func (t *table[P]) thinPlan(steps int64) (newStride int64, ok bool) {
	n := len(t.entries)
	kept := (n + 1) / 2
	if n < 2 || kept >= t.max {
		// Thinning cannot open a slot (max <= 1): the bound is a hard
		// promise, so the insert is refused.
		return 0, false
	}
	minGap := int64(0)
	for i := 2; i < n; i += 2 {
		if g := t.entries[i].steps - t.entries[i-2].steps; minGap == 0 || g < minGap {
			minGap = g
		}
	}
	newStride = t.stride
	switch {
	case minGap > newStride*2:
		newStride = minGap
	case newStride > 0:
		newStride *= 2
	default:
		newStride = 1
	}
	// Admissibility among the survivors under the raised stride.
	prev, next := int64(-1), int64(-1)
	havePrev, haveNext := false, false
	for i := 0; i < n; i += 2 {
		s := t.entries[i].steps
		switch {
		case s == steps:
			return 0, false
		case s < steps:
			prev, havePrev = s, true
		default:
			next, haveNext = s, true
		}
		if haveNext {
			break
		}
	}
	if havePrev && steps-prev < newStride {
		return 0, false
	}
	if haveNext && next-steps < newStride {
		return 0, false
	}
	return newStride, true
}

// commitThin performs the thinning described by thinPlan: drop every
// other entry (keeping the first) and raise the stride.
func (t *table[P]) commitThin(newStride int64) {
	kept := t.entries[:0]
	for i := range t.entries {
		if i%2 == 0 {
			kept = append(kept, t.entries[i])
		}
	}
	t.thinned += int64(len(t.entries) - len(kept))
	// Zero the vacated tail so dropped snapshots are collectable.
	var zero tabEntry[P]
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = zero
	}
	t.entries = kept
	t.stride = newStride
}

// insert places payload at steps, thinning transactionally when the
// table is full. It reports whether the entry landed; a refused insert —
// duplicate, inside the current stride of a neighbor, or disqualified by
// the stride a thinning would raise — leaves the table untouched.
func (t *table[P]) insert(steps int64, payload P) bool {
	i := t.search(steps)
	if !t.admissibleAt(i, steps, t.stride) {
		return false
	}
	if len(t.entries) >= t.max {
		newStride, ok := t.thinPlan(steps)
		if !ok {
			return false
		}
		t.commitThin(newStride)
		i = t.search(steps)
	}
	t.entries = append(t.entries, tabEntry[P]{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = tabEntry[P]{steps: steps, payload: payload}
	return true
}

// centry is one concrete replay snapshot: the state parked at a replay
// point and the controller that drives its continuation.
type centry struct {
	state *vm.State
	ctl   vm.CloneableController
}

// Store holds concrete replay checkpoints for one recorded trace, ordered
// by the global instruction count at which they were taken. It is safe
// for concurrent use by the parallel classification engine; capacity is
// handled by stride thinning (see table).
type Store struct {
	mu  sync.Mutex
	tab table[centry]

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultMax is the default entry bound of both stores.
const DefaultMax = 64

// NewStore returns a store bounded to max entries (<= 0 means the
// default of 64). The store is a cache, never an obligation: at capacity
// it thins existing entries by stride rather than growing.
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultMax
	}
	return &Store{tab: table[centry]{max: max}}
}

// Len returns the number of stored checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tab.entries)
}

// Hits returns how many Resume calls found a usable checkpoint.
func (s *Store) Hits() int { return int(s.hits.Load()) }

// Misses returns how many Resume calls fell back to a full replay.
func (s *Store) Misses() int { return int(s.misses.Load()) }

// Thinned returns how many stored checkpoints capacity thinning dropped.
func (s *Store) Thinned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.tab.thinned)
}

// Stride returns the current minimum step gap between entries (0 until
// the first thinning).
func (s *Store) Stride() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.stride
}

// Add snapshots st (at st.Steps) together with its controller. Both are
// cloned copy-on-write (O(1), not a deep copy), so the caller keeps
// running its own copies untouched while the stored entry stays frozen
// behind the state's write barriers. An
// entry at the same step count already present, one closer than the
// thinning stride to an existing neighbor, or one a capacity thinning
// could not make room for, makes Add a no-op — and a refused Add never
// thins: stored checkpoints are only dropped when the incoming entry
// actually lands.
func (s *Store) Add(st *vm.State, ctl vm.CloneableController) {
	steps := st.Steps
	s.mu.Lock()
	ok := s.tab.admissible(steps)
	s.mu.Unlock()
	if !ok {
		return
	}

	// Clone outside the lock: cloning only reads st, and a racing Add of
	// the same step is harmless (the second insert is refused below).
	e := centry{state: st.Clone(), ctl: ctl.CloneCtl().(vm.CloneableController)}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.insert(steps, e)
}

// Resume returns a private clone of the latest checkpoint taken at or
// before limit that the accept callback approves, together with a cloned
// controller and the checkpoint's step count. accept (nil means "accept
// everything") inspects the stored state read-only — this is where the
// caller verifies the skipped prefix is reconstructible (observer state,
// symbolic-input safety). ok is false when no entry qualifies.
func (s *Store) Resume(limit int64, accept func(*vm.State) bool) (st *vm.State, ctl vm.Controller, steps int64, ok bool) {
	s.mu.Lock()
	var found centry
	for i := s.tab.search(limit+1) - 1; i >= 0; i-- {
		e := s.tab.entries[i]
		if accept == nil || accept(e.payload.state) {
			found, steps, ok = e.payload, e.steps, true
			break
		}
	}
	s.mu.Unlock()

	if !ok {
		s.misses.Add(1)
		return nil, nil, 0, false
	}
	s.hits.Add(1)
	// Clone outside the lock; entries are immutable and State.Clone is
	// safe for concurrent readers.
	return found.state.Clone(), found.ctl.CloneCtl(), steps, true
}

// PendingFork is one sibling state queued (but not yet explored) when a
// symbolic checkpoint was taken: the forked state — its hints already
// steering it down the unexplored branch side — and the controller that
// continues its schedule.
type PendingFork struct {
	State *vm.State
	Ctl   vm.Controller
}

// symEntry is one symbolic exploration snapshot: the mainline state and
// controller, the fork queue pending at the snapshot, and the
// exploration counters accumulated over the prefix.
type symEntry struct {
	state *vm.State
	ctl   vm.CloneableController
	forks []PendingFork // stored clones; Ctl is always cloneable

	branches  int // symbolic branch decisions taken in the prefix
	forksUsed int // fork-budget slots consumed in the prefix
	dropped   int // forks dropped at the queue cap in the prefix
}

// SymResume is a resumed symbolic checkpoint: private clones of the
// mainline state, its controller, and every pending fork, plus the
// prefix's exploration counters. A resuming exploration must requeue the
// forks behind the mainline and pre-charge its engine with Branches and
// ForksUsed (and its truncation accounting with Dropped), so that a
// budget- or cap-bound exploration behaves exactly as one started from
// the root.
type SymResume struct {
	State *vm.State
	Ctl   vm.Controller
	Steps int64
	Forks []PendingFork

	Branches  int
	ForksUsed int
	Dropped   int
}

// SymStore holds symbolic exploration-mainline checkpoints for one
// recorded trace. It has the same bounded, stride-thinned shape as Store
// (entries keyed by the mainline's step count) but each entry
// additionally snapshots the pending fork queue and the exploration
// counters, which Resume hands back as a SymResume. It is safe for
// concurrent use.
type SymStore struct {
	mu  sync.Mutex
	tab table[symEntry]

	hits   atomic.Int64
	misses atomic.Int64
}

// NewSymStore returns a symbolic store bounded to max entries (<= 0
// means the default of 64).
func NewSymStore(max int) *SymStore {
	if max <= 0 {
		max = DefaultMax
	}
	return &SymStore{tab: table[symEntry]{max: max}}
}

// Len returns the number of stored symbolic checkpoints.
func (s *SymStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tab.entries)
}

// Hits returns how many Resume calls found a usable checkpoint.
func (s *SymStore) Hits() int { return int(s.hits.Load()) }

// Misses returns how many Resume calls fell back to a root exploration.
func (s *SymStore) Misses() int { return int(s.misses.Load()) }

// Thinned returns how many stored checkpoints capacity thinning dropped.
func (s *SymStore) Thinned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.tab.thinned)
}

// Stride returns the current minimum step gap between entries.
func (s *SymStore) Stride() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.stride
}

// Add snapshots the exploration mainline st (at st.Steps) with its
// controller, the pending fork queue, and the prefix's exploration
// counters. Everything is cloned copy-on-write — snapshots cost O(1)
// plus O(pending forks). Admission follows the same rules
// as Store.Add (duplicate/stride rejection is cheap and happens before
// any cloning; thinning is transactional); additionally, if the mainline
// controller or any pending fork's controller is not cloneable the
// snapshot cannot be replayed faithfully and Add is a no-op.
func (s *SymStore) Add(st *vm.State, ctl vm.CloneableController, forks []PendingFork, branches, forksUsed, dropped int) {
	steps := st.Steps
	s.mu.Lock()
	ok := s.tab.admissible(steps)
	s.mu.Unlock()
	if !ok {
		return
	}

	e := symEntry{
		state:     st.Clone(),
		ctl:       ctl.CloneCtl().(vm.CloneableController),
		branches:  branches,
		forksUsed: forksUsed,
		dropped:   dropped,
	}
	if len(forks) > 0 {
		e.forks = make([]PendingFork, 0, len(forks))
		for _, f := range forks {
			cc, ok := f.Ctl.(vm.CloneableController)
			if !ok {
				return // an unreplayable fork poisons the whole snapshot
			}
			e.forks = append(e.forks, PendingFork{State: f.State.Clone(), Ctl: cc.CloneCtl()})
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.tab.insert(steps, e)
}

// Resume returns private clones of the latest symbolic checkpoint taken
// at or before limit that accept approves (nil accepts everything; the
// callback inspects the stored mainline state read-only). ok is false
// when no entry qualifies.
func (s *SymStore) Resume(limit int64, accept func(*vm.State) bool) (*SymResume, bool) {
	s.mu.Lock()
	var found symEntry
	var steps int64
	ok := false
	for i := s.tab.search(limit+1) - 1; i >= 0; i-- {
		e := s.tab.entries[i]
		if accept == nil || accept(e.payload.state) {
			found, steps, ok = e.payload, e.steps, true
			break
		}
	}
	s.mu.Unlock()

	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	r := &SymResume{
		State:     found.state.Clone(),
		Ctl:       found.ctl.CloneCtl(),
		Steps:     steps,
		Branches:  found.branches,
		ForksUsed: found.forksUsed,
		Dropped:   found.dropped,
	}
	if len(found.forks) > 0 {
		r.Forks = make([]PendingFork, 0, len(found.forks))
		for _, f := range found.forks {
			cc := f.Ctl.(vm.CloneableController) // stored forks are always cloneable
			r.Forks = append(r.Forks, PendingFork{State: f.State.Clone(), Ctl: cc.CloneCtl()})
		}
	}
	return r, true
}
