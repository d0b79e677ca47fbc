package core

import (
	"sync"

	"repro/internal/ckpt"
	"repro/internal/trace"
)

// CacheTier is the engine's one reuse handle: the replay checkpoint
// store and the trace it serves. Replays, and multi-path explorations
// whose skipped prefix is symbolic-safe, resume from the nearest prior
// snapshot instead of the program's initial state; the detection pass
// and classification replays populate it. RunStream makes a per-run
// tier when the caller passes none, and a Classifier built by New
// without one gets a private tier, so repeated Classify calls on it
// still reuse work. portendd keeps one tier per submission and passes
// it to every run of that submission, so a repeat run starts warm.
//
// Soundness contract: a tier may only be shared between runs of the
// identical (program, args, inputs, engine options). The engine is
// deterministic under that key — every run records the same trace
// instruction for instruction — so checkpoints deposited against one
// run's trace are states the next run's replay would pass through
// anyway, and resuming from them cannot change a verdict (the same
// argument the determinism suite pins for within-run reuse). The server
// enforces the key by addressing tiers with a hash of the canonical
// submission.
//
// The store binds to one *trace.Trace by pointer identity. BeginRun
// clears that binding when no other run is active, letting the new
// run's trace bind; while runs overlap, later runs simply fail the
// binding and run checkpoint-cold — degraded warmth, never degraded
// correctness.
type CacheTier struct {
	store *ckpt.Store

	mu     sync.Mutex
	tr     *trace.Trace // the trace the store serves; nil until one binds
	active int
	runs   int64

	// pendingPreds are predicate observers restored from a snapshot
	// without their check functions (functions have no wire form); the
	// first run on the tier re-binds them from its effective options —
	// see bindPredicates.
	pendingPreds []pendingPred
}

// NewCacheTier builds an empty tier whose checkpoint store holds up to
// ckpt.DefaultMax entries. RunStream builds one per run when the caller
// passes none; portendd builds one per submission and keeps it across
// runs. opts no longer sizes anything; the parameter stays for existing
// callers.
func NewCacheTier(opts Options) *CacheTier {
	return &CacheTier{store: ckpt.NewStore(ckpt.DefaultMax)}
}

// runTier returns the tier a run or classifier under opts uses: none
// with NoCache, else the caller's tier with its restored predicate
// observers bound, else a fresh private one.
func runTier(opts Options) *CacheTier {
	switch {
	case opts.NoCache:
		return nil
	case opts.Tier == nil:
		return NewCacheTier(opts)
	}
	opts.Tier.bindPredicates(opts.Predicates)
	return opts.Tier
}

// storeFor returns the checkpoint store serving tr, or nil (also on a
// nil tier: caching off). The tier binds to the first trace it is asked
// about. Checkpoints are positions within one recorded schedule, so a
// classifier asked about a different trace gets no store rather than
// resume from another execution's states.
func (t *CacheTier) storeFor(tr *trace.Trace) *ckpt.Store {
	if t == nil || tr == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tr == nil {
		t.tr = tr
	}
	if t.tr != tr {
		return nil
	}
	return t.store
}

// BeginRun marks a run as using the tier and returns its end function.
// On the transition from idle, the store's trace binding is cleared so
// the run's freshly recorded trace can bind; entry contents are kept —
// that is the point of the tier, and the soundness contract makes
// entries recorded against the previous run's trace valid for the next.
// The returned end is idempotent and must be called when the run
// finishes.
func (t *CacheTier) BeginRun() (end func()) {
	t.mu.Lock()
	if t.active == 0 {
		t.tr = nil
	}
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
// traffic, aggregated across every run that used it.
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

// Stats snapshots the tier's checkpoint store.
func (t *CacheTier) Stats() TierStats {
	st := t.store
	return TierStats{
		Checkpoints:       st.Len(),
		CheckpointHits:    st.Hits(),
		CheckpointMisses:  st.Misses(),
		CheckpointThinned: st.Thinned(),
	}
}
