package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/vm"
)

// sharedCaches bundles the per-analysis-run reuse machinery: the replay
// checkpoint store (replays, and multi-path explorations whose skipped
// prefix is symbolic-safe, resume from the nearest prior snapshot
// instead of the program's initial state — populated by the detection
// pass and by classification replays) and the memoizing solver cache
// (structurally identical queries are answered once). RunStream creates
// one bundle per run and threads it through every Classifier it builds;
// a Classifier constructed directly gets a private bundle, so repeated
// Classify calls on one classifier still reuse work.
//
// None of the caches changes a verdict: checkpoint resume is
// deterministic replay from a state full replay would pass through
// anyway, and the solver cache only returns results the same
// deterministic search would recompute. The caches trade memory for
// time, nothing else — which is what the determinism suite asserts by
// diffing cached against uncached runs byte for byte.
type sharedCaches struct {
	store *ckpt.Store // replay checkpoints
	cache *solver.Cache

	mu sync.Mutex
	tr *trace.Trace // the trace the checkpoint store serves
}

func newSharedCaches() *sharedCaches {
	return &sharedCaches{
		store: ckpt.NewStore(ckpt.DefaultMax),
		cache: solver.NewCache(0),
	}
}

// unbind releases the bundle's trace binding so the next run can bind
// its own trace. Only CacheTier.BeginRun calls this, and only on the
// 0→1 active-run transition: stored checkpoints are positions within a
// recorded schedule, and a tier's reuse contract (identical program,
// args, inputs, options ⇒ identical recorded trace) is what makes
// entries recorded against the previous run's trace valid for the next.
func (s *sharedCaches) unbind() {
	s.mu.Lock()
	s.tr = nil
	s.mu.Unlock()
}

// bindTrace binds the bundle to tr on first use and reports whether tr
// is the bundle's trace. Checkpoints are positions within one recorded
// schedule; if a classifier with a private bundle is asked about a
// different trace, the store declines rather than resume from another
// execution's states.
func (s *sharedCaches) bindTrace(tr *trace.Trace) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tr == nil {
		s.tr = tr
	}
	return s.tr == tr
}

// storeFor returns the replay checkpoint store serving tr, or nil.
func (s *sharedCaches) storeFor(tr *trace.Trace) *ckpt.Store {
	if s == nil || tr == nil || !s.bindTrace(tr) {
		return nil
	}
	return s.store
}

// solverCache returns the shared solver memo (nil when caching is off).
func (s *sharedCaches) solverCache() *solver.Cache {
	if s == nil {
		return nil
	}
	return s.cache
}

// counterKey addresses read counts: object class × reading thread ×
// source line. Heap objects collapse to one class (obj 0), mirroring the
// race detector's clustering — a heap race's spin analysis considers all
// heap reads from a line, exactly as the per-race counter did.
type counterKey struct {
	space vm.Space
	obj   int64
	tid   int64
	line  int32
}

// accessCounter observes every shared memory access of a replay. It
// subsumes the per-race read counter: reads are counted per (object
// class, thread, line) for all objects at once, so the counts for any
// race can be projected out afterwards — which is what makes a replay
// state (and its checkpoint snapshots) reusable across races. It also
// records which object classes have been touched at all (reads or
// writes): one bit per global id, plus one flag for the heap (all heap
// objects are one class). A checkpoint is a safe multi-path resume
// point for a race only if its prefix never touched the racy object.
// Cloning is copy-on-write: CloneObs shares the tables and marks both
// sides shared, and the first access on either side that changes them
// — a read, or a first touch — copies them (own). Checkpoint deposits
// of replay states clone this observer constantly and read it rarely.
type accessCounter struct {
	reads   map[counterKey]int
	globals []uint64 // touched global ids, bit g%64 of word g/64
	heap    bool     // some heap object was touched
	shared  uint32   // atomic; 1 while the tables may be shared with a clone
}

func newAccessCounter() *accessCounter {
	return &accessCounter{reads: map[counterKey]int{}}
}

// own copies the tables if a clone may still reference them.
func (ac *accessCounter) own() {
	if atomic.LoadUint32(&ac.shared) == 0 {
		return
	}
	reads := make(map[counterKey]int, len(ac.reads))
	for k, v := range ac.reads {
		reads[k] = v
	}
	ac.reads = reads
	ac.globals = append([]uint64(nil), ac.globals...)
	atomic.StoreUint32(&ac.shared, 0)
}

func normObj(space vm.Space, obj int64) int64 {
	if space == vm.SpaceHeap {
		return 0
	}
	return obj
}

// OnAccess implements vm.Observer.
func (ac *accessCounter) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	if !ac.touchedObj(loc.Space, loc.Obj) {
		ac.own()
		ac.touch(loc.Space, loc.Obj)
	}
	if !write {
		ac.own()
		ac.reads[counterKey{loc.Space, normObj(loc.Space, loc.Obj), int64(tid), pc.Line}]++
	}
}

// touch marks the object class of (space, obj) touched.
func (ac *accessCounter) touch(space vm.Space, obj int64) {
	if space == vm.SpaceHeap {
		ac.heap = true
		return
	}
	w := int(obj / 64)
	for w >= len(ac.globals) {
		ac.globals = append(ac.globals, 0)
	}
	ac.globals[w] |= 1 << (obj % 64)
}

// OnSync implements vm.Observer (no-op).
func (ac *accessCounter) OnSync(st *vm.State, ev vm.SyncEvent) {}

// CloneObs implements vm.Observer; O(1), see the type comment.
func (ac *accessCounter) CloneObs() vm.Observer {
	atomic.StoreUint32(&ac.shared, 1)
	return &accessCounter{reads: ac.reads, globals: ac.globals, heap: ac.heap, shared: 1}
}

// readsAt projects the read count of one race's object class at (tid,
// line) — the quantity the busy-wait-poll (spinRead) test consumes.
func (ac *accessCounter) readsAt(space vm.Space, obj int64, tid int, line int32) int {
	return ac.reads[counterKey{space, normObj(space, obj), int64(tid), line}]
}

// touchedObj reports whether the object class has been accessed at all.
func (ac *accessCounter) touchedObj(space vm.Space, obj int64) bool {
	if space == vm.SpaceHeap {
		return ac.heap
	}
	w := obj / 64
	return w < int64(len(ac.globals)) && ac.globals[w]&(1<<(obj%64)) != 0
}

// findAccessCounter retrieves the replay's access counter, if any.
func findAccessCounter(st *vm.State) *accessCounter {
	for _, o := range st.Observers {
		if ac, ok := o.(*accessCounter); ok {
			return ac
		}
	}
	return nil
}

// dropAccessCounter removes the access counter from a state's observers.
// Checkpoint snapshots keep their counter (resumed replays must continue
// counting where the prefix left off), but states handed to enforcement
// and multi-path exploration do not need one — nothing reads it past the
// replay — so stripping it spares every downstream clone the map copies.
func dropAccessCounter(st *vm.State) {
	for i, o := range st.Observers {
		if _, ok := o.(*accessCounter); ok {
			st.Observers = append(st.Observers[:i], st.Observers[i+1:]...)
			return
		}
	}
}
