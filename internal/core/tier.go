package core

import "sync"

// CacheTier is a run-outliving handle on the engine's reuse machinery —
// the replay checkpoint store and the memoizing solver cache — for
// callers (portendd) that analyze the same submission repeatedly and
// want the second run to start warm.
//
// Soundness contract: a tier may only be shared between runs of the
// identical (program, args, inputs, engine options). The engine is
// deterministic under that key — every run records the same trace
// instruction for instruction — so checkpoints deposited against one
// run's trace are states the next run's replay would pass through
// anyway, and resuming from them cannot change a verdict (the same
// argument the determinism suite pins for within-run cache reuse). The
// solver cache needs no key at all: Solve is a pure function of the
// query, so cross-run (even cross-program) hits are always sound. The
// server enforces the key by addressing tiers with a hash of the
// canonical submission.
//
// The checkpoint store binds to one *trace.Trace by pointer identity.
// BeginRun clears that binding when no other run is active, letting the
// new run's trace bind; while runs overlap, later runs simply fail the
// binding and run checkpoint-cold (sharing only the solver cache) —
// degraded warmth, never degraded correctness.
type CacheTier struct {
	shared *sharedCaches

	mu     sync.Mutex
	active int
	runs   int64

	// pendingPreds are predicate observers restored from a snapshot
	// without their check functions (functions have no wire form); the
	// first run on the tier re-binds them from its effective options —
	// see bindPredicates.
	pendingPreds []pendingPred
}

// NewCacheTier builds an empty tier: the checkpoint store holds up to
// ckpt.DefaultMax entries and the solver cache solver.DefaultCacheSize.
// opts no longer sizes anything; the parameter stays for existing
// callers.
func NewCacheTier(opts Options) *CacheTier {
	return &CacheTier{shared: newSharedCaches()}
}

// BeginRun marks a run as using the tier and returns its end function.
// On the transition from idle, the checkpoint store's trace binding is
// released so the run's freshly recorded trace can bind; entry contents
// are kept — that is the point of the tier. The returned end is
// idempotent and must be called when the run finishes.
func (t *CacheTier) BeginRun() (end func()) {
	t.mu.Lock()
	if t.active == 0 {
		t.shared.unbind()
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
// SymHits, SymMisses, SymThinned, SibMemoHits and SolverResizes are
// always zero. They counted an exploration-mainline checkpoint store, a
// sibling-outcome memo and adaptive solver-cache growth that no longer
// exist, and stay only so existing readers of the struct keep compiling.
type TierStats struct {
	Checkpoints       int
	CheckpointHits    int
	CheckpointMisses  int
	CheckpointThinned int

	SymHits     int
	SymMisses   int
	SymThinned  int
	SibMemoHits int

	SolverEntries   int
	SolverHits      int
	SolverMisses    int
	SolverEvictions int
	SolverResizes   int
}

// Warm reports whether the tier holds anything a new run could reuse.
func (s TierStats) Warm() bool {
	return s.Checkpoints > 0 || s.SolverEntries > 0
}

// Stats snapshots the tier's caches.
func (t *CacheTier) Stats() TierStats {
	sh := t.shared
	return TierStats{
		Checkpoints:       sh.store.Len(),
		CheckpointHits:    sh.store.Hits(),
		CheckpointMisses:  sh.store.Misses(),
		CheckpointThinned: sh.store.Thinned(),

		SolverEntries:   sh.cache.Len(),
		SolverHits:      sh.cache.Hits(),
		SolverMisses:    sh.cache.Misses(),
		SolverEvictions: sh.cache.Evictions(),
	}
}
