package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/trace"
)

// runStore is one run's replay checkpoint store and the trace it serves.
// Replays, and multi-path explorations whose skipped prefix is
// symbolic-safe, resume from the nearest prior snapshot instead of the
// program's initial state; the detection pass and classification
// replays populate it. RunStream makes one per run, and a Classifier
// built by New gets a private one, so repeated Classify calls on it
// still reuse work.
//
// The store binds to the first *trace.Trace it is asked about, by
// pointer identity: checkpoints are positions within one recorded
// schedule, so a classifier asked about another trace gets no store
// rather than resume from another execution's states.
type runStore struct {
	store *ckpt.Store

	mu sync.Mutex
	tr *trace.Trace // the trace the store serves; nil until one binds
}

func newRunStore() *runStore {
	return &runStore{store: ckpt.NewStore(ckpt.DefaultMax)}
}

// storeFor returns the checkpoint store serving tr, or nil (also on a
// nil runStore: caching off).
func (r *runStore) storeFor(tr *trace.Trace) *ckpt.Store {
	if r == nil || tr == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tr == nil {
		r.tr = tr
	}
	if r.tr != tr {
		return nil
	}
	return r.store
}

// CacheTier carries warmth from one run of a submission to the next.
// It holds the positions of the checkpoints its last finished run kept
// — their ascending State.Steps values, at most ckpt.DefaultMax — and
// its run and hit counters; no engine state. A run on the tier gets its
// own checkpoint store like any other run, and its detection pass parks
// at each position and deposits there, so its classifications resume
// from the same checkpoints the previous run had built up. When the run
// ends, its store's positions and counters go back to the tier.
// portendd keeps one tier per submission and passes it to every run of
// that submission, so a repeat run starts warm.
//
// Warmth contract: a trace and its inputs fix every state of the
// execution, so a position names a state only relative to a submission
// — the identical (program, args, inputs, engine options). The server
// addresses tiers by a hash of the canonical submission. Sharing a tier
// between different submissions, or restoring a foreign position list,
// only wastes warmth: a position is nothing but a place where the live
// run parks, and every deposit is a state of the live run.
type CacheTier struct {
	mu        sync.Mutex
	positions []int64
	active    int
	runs      int64

	hits, misses, thinned int64
}

// NewCacheTier builds an empty tier. opts no longer sizes anything; the
// parameter stays for existing callers.
func NewCacheTier(opts Options) *CacheTier {
	return &CacheTier{}
}

// at returns the positions a new run parks at (nil on a nil tier). The
// list is replaced, never changed in place, so the caller may keep it.
func (t *CacheTier) at() []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.positions
}

// keep folds a finished run's store back into the tier: its counters
// always, and its positions when the run's detection pass completed. A
// run cut short in detection leaves the positions as they were.
func (t *CacheTier) keep(rs *runStore, detected bool) {
	st := rs.store
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits += int64(st.Hits())
	t.misses += int64(st.Misses())
	t.thinned += int64(st.Thinned())
	if detected {
		t.positions = st.Steps()
	}
}

// BeginRun marks a run as using the tier and returns its end function,
// which is idempotent and must be called when the run finishes.
func (t *CacheTier) BeginRun() (end func()) {
	t.mu.Lock()
	t.active++
	t.runs++
	t.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.active--
			t.mu.Unlock()
		})
	}
}

// Runs returns how many runs have used the tier.
func (t *CacheTier) Runs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs
}

// TierStats is a point-in-time snapshot of a tier's cache population and
// traffic, aggregated across every run that used it. Checkpoints counts
// the tier's positions.
//
// SymHits, SymMisses, SymThinned, SibMemoHits, SolverHits, SolverMisses,
// SolverEvictions and SolverResizes are always zero. They counted an
// exploration-mainline checkpoint store, a sibling-outcome memo and a
// solver cache that no longer exist, and stay only so existing readers
// of the struct keep compiling.
type TierStats struct {
	Checkpoints       int
	CheckpointHits    int
	CheckpointMisses  int
	CheckpointThinned int

	SymHits     int
	SymMisses   int
	SymThinned  int
	SibMemoHits int

	SolverHits      int
	SolverMisses    int
	SolverEvictions int
	SolverResizes   int
}

// Warm reports whether the tier holds anything a new run could reuse.
func (s TierStats) Warm() bool {
	return s.Checkpoints > 0
}

// Stats snapshots the tier's positions and counters.
func (t *CacheTier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TierStats{
		Checkpoints:       len(t.positions),
		CheckpointHits:    int(t.hits),
		CheckpointMisses:  int(t.misses),
		CheckpointThinned: int(t.thinned),
	}
}

// TierSnapshot is the durable form of a CacheTier: its positions and
// counters. internal/dstore frames and checksums its gob encoding.
type TierSnapshot struct {
	Runs      int64
	Positions []int64
	Hits      int64
	Misses    int64
	Thinned   int64
}

// Snapshot renders the tier into its durable form.
func (t *CacheTier) Snapshot() *TierSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// SnapshotIfIdle snapshots the tier unless a run is active on it. ok is
// false when a run was active: the caller skips this flush, and the
// last run to finish flushes instead, so overlapping runs write the
// tier once.
func (t *CacheTier) SnapshotIfIdle() (snap *TierSnapshot, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active > 0 {
		return nil, false
	}
	return t.snapshotLocked(), true
}

func (t *CacheTier) snapshotLocked() *TierSnapshot {
	return &TierSnapshot{
		Runs: t.runs, Positions: slices.Clone(t.positions),
		Hits: t.hits, Misses: t.misses, Thinned: t.thinned,
	}
}

// Restore replaces the tier's content with a snapshot's. The positions
// must be strictly ascending, positive and at most ckpt.DefaultMax
// many; any other list is an error and leaves the tier as it was. A
// list that passes can cost warmth but never change a verdict, since
// the run only parks at its positions.
func (t *CacheTier) Restore(snap *TierSnapshot) error {
	ps := snap.Positions
	if len(ps) > ckpt.DefaultMax {
		return fmt.Errorf("core: tier holds %d positions, at most %d", len(ps), ckpt.DefaultMax)
	}
	for i, p := range ps {
		if p <= 0 || i > 0 && p <= ps[i-1] {
			return fmt.Errorf("core: tier position %d (%d) is not positive and ascending", i, p)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.positions = slices.Clone(ps)
	t.runs = snap.Runs
	t.hits, t.misses, t.thinned = snap.Hits, snap.Misses, snap.Thinned
	return nil
}

// MemBytes is the tier's resident footprint: its position list. This is
// what the server's memory-budget registry and the portend_tier_bytes
// gauge report.
func (t *CacheTier) MemBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return 8 * int64(len(t.positions))
}
