package core

import (
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

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
