package race

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// Access describes one side of a race: which thread accessed which
// location, where in the code, and at which per-thread instruction count —
// the coordinates the record/replay engine needs to find this access again
// (§3.1).
type Access struct {
	TID    int
	Write  bool
	PC     bytecode.PCRef
	TInstr int64
	Clock  int64 // accessing thread's own clock component at the access
	// Global is the state-wide completed-instruction count just before the
	// access executed. Replay of the recorded trace reproduces the same
	// count at the same access, so it addresses this access within the
	// trace — the coordinate the classifier's checkpoint store resumes by.
	// Reports adapted from external tools leave it 0 (unknown).
	Global int64
}

// String renders "T2 WRITE @ fn:pc".
func (a Access) String() string {
	kind := "READ"
	if a.Write {
		kind = "WRITE"
	}
	return fmt.Sprintf("T%d %s @ fn%d:%d(line %d) #%d", a.TID, kind, a.PC.Fn, a.PC.PC, a.PC.Line, a.TInstr)
}

// ClusterKey identifies a distinct race: the shared object (element index
// ignored, so a loop racing over an array is one race) plus the two racing
// source lines, order-normalized. Clustering at source granularity mirrors
// the paper's clustering by location and stack traces (§4): the read and
// the write of a single `c += 1` belong to the same source-level race.
type ClusterKey struct {
	Space    vm.Space
	Obj      int64
	FnA, FnB int
	LnA, LnB int32
}

func normKey(loc vm.Loc, a, b bytecode.PCRef) ClusterKey {
	if b.Fn < a.Fn || (b.Fn == a.Fn && b.Line < a.Line) {
		a, b = b, a
	}
	// Cluster heap locations by allocation-site-independent object class:
	// all heap refs collapse to obj 0 (references differ across runs).
	obj := loc.Obj
	if loc.Space == vm.SpaceHeap {
		obj = 0
	}
	return ClusterKey{Space: loc.Space, Obj: obj, FnA: a.Fn, FnB: b.Fn, LnA: a.Line, LnB: b.Line}
}

// Report is one distinct data race.
type Report struct {
	Key       ClusterKey
	Loc       vm.Loc // location of the first detected instance
	First     Access // earlier access of the first detected instance
	Second    Access // later access (the detection point)
	Instances int    // dynamic occurrences observed
}

// ID renders a short stable identifier for the race.
func (r *Report) ID() string {
	return fmt.Sprintf("%v@L%d-L%d", r.Loc, r.Key.LnA, r.Key.LnB)
}

// Describe renders the debugging-aid report of Fig 6.
func (r *Report) Describe(p *bytecode.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data race during access to: %s\n", vm.FormatLoc(p, r.Loc))
	kind := func(w bool) string {
		if w {
			return "WRITE"
		}
		return "READ"
	}
	fmt.Fprintf(&b, "current thread id: %d: %s\n", r.Second.TID, kind(r.Second.Write))
	fmt.Fprintf(&b, "racing thread id: %d: %s\n", r.First.TID, kind(r.First.Write))
	fmt.Fprintf(&b, "Current thread at:\n  %s\n", p.FormatPC(r.Second.PC))
	fmt.Fprintf(&b, "Previous at:\n  %s\n", p.FormatPC(r.First.PC))
	fmt.Fprintf(&b, "instances observed: %d\n", r.Instances)
	return b.String()
}

// locState is the per-location detector metadata, held by value: the
// last write, and the latest read of each thread since that write,
// sorted by ascending TID. A write truncates reads in place, so a
// location's slice is reused for the rest of the run.
type locState struct {
	lastWrite Access
	written   bool
	reads     []Access
}

// Detector is a happens-before race detector implementing vm.Observer.
// Once a location and its readers have been seen, an access allocates
// only to start a new race cluster: thread clocks are indexed by TID,
// and per-location state is held by value.
type Detector struct {
	vcs      []VectorClock // by tid; nil until the thread's first event
	mutexVC  map[int]VectorClock
	exitVC   map[int]VectorClock
	locs     map[vm.Loc]*locState
	clusters map[ClusterKey]*Report
	order    []ClusterKey // report order, deterministic

	// OnNew, when non-nil, is invoked synchronously (from inside the
	// racing access's OnAccess notification) each time a new race cluster
	// is created — the cluster's detection point. The detection phase uses
	// it to schedule a replay checkpoint at the first clean park after the
	// detection point. It is intentionally not copied by CloneObs:
	// detectors cloned into forked exploration states observe derived
	// executions, not the recording the hook's consumer tracks.
	OnNew func(*Report)
}

// NewDetector returns an empty detector; attach it to a state via
// st.Observers.
func NewDetector() *Detector {
	return &Detector{
		mutexVC:  map[int]VectorClock{},
		exitVC:   map[int]VectorClock{},
		locs:     map[vm.Loc]*locState{},
		clusters: map[ClusterKey]*Report{},
	}
}

// Reports returns the distinct races in detection order.
func (d *Detector) Reports() []*Report {
	out := make([]*Report, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.clusters[k])
	}
	return out
}

func (d *Detector) vcOf(tid int) VectorClock {
	if tid < len(d.vcs) && d.vcs[tid] != nil {
		return d.vcs[tid]
	}
	vc := NewVC(tid+1).Set(tid, 1)
	d.setVC(tid, vc)
	return vc
}

func (d *Detector) setVC(tid int, vc VectorClock) {
	for tid >= len(d.vcs) {
		d.vcs = append(d.vcs, nil)
	}
	d.vcs[tid] = vc
}

// loc returns the metadata of loc, creating it on first touch.
func (d *Detector) loc(loc vm.Loc) *locState {
	ls := d.locs[loc]
	if ls == nil {
		ls = &locState{}
		d.locs[loc] = ls
	}
	return ls
}

// OnAccess implements vm.Observer: the FastTrack-style happens-before
// check against the last write and the concurrent reads of the location.
// A write racing several earlier reads reports them in ascending reader
// TID, so report order and each cluster's First are fixed by the trace.
func (d *Detector) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	vc := d.vcOf(tid)
	cur := Access{TID: tid, Write: write, PC: pc, TInstr: tInstr, Clock: vc.Get(tid), Global: st.Steps}
	ls := d.loc(loc)

	if w := &ls.lastWrite; ls.written && w.TID != tid && w.Clock > vc.Get(w.TID) {
		// Last write is concurrent with this access: write-write or
		// write-read race.
		d.report(loc, w, &cur)
	}
	if write {
		for i := range ls.reads {
			if r := &ls.reads[i]; r.TID != tid && r.Clock > vc.Get(r.TID) {
				d.report(loc, r, &cur) // read-write race
			}
		}
		ls.lastWrite, ls.written = cur, true
		ls.reads = ls.reads[:0]
		return
	}
	i := 0
	for i < len(ls.reads) && ls.reads[i].TID < tid {
		i++
	}
	if i < len(ls.reads) && ls.reads[i].TID == tid {
		ls.reads[i] = cur
		return
	}
	ls.reads = append(ls.reads, Access{})
	copy(ls.reads[i+1:], ls.reads[i:])
	ls.reads[i] = cur
}

// report counts one racing pair (prev, cur) at loc: a new instance of
// its cluster, or a new cluster.
func (d *Detector) report(loc vm.Loc, prev, cur *Access) {
	key := normKey(loc, prev.PC, cur.PC)
	if r, ok := d.clusters[key]; ok {
		r.Instances++
		return
	}
	r := &Report{Key: key, Loc: loc, First: *prev, Second: *cur, Instances: 1}
	d.clusters[key] = r
	d.order = append(d.order, key)
	if d.OnNew != nil {
		d.OnNew(r)
	}
}

// OnSync implements vm.Observer: maintains the happens-before relation
// over spawn/join/lock/unlock/signal/barrier.
func (d *Detector) OnSync(st *vm.State, ev vm.SyncEvent) {
	switch ev.Kind {
	case vm.EvSpawn:
		parent := d.vcOf(ev.TID)
		d.setVC(ev.Obj, d.vcOf(ev.Obj).Join(parent))
		d.setVC(ev.TID, parent.Tick(ev.TID))
	case vm.EvExit:
		d.exitVC[ev.TID] = d.vcOf(ev.TID).Copy()
	case vm.EvJoin:
		if exit, ok := d.exitVC[ev.Obj]; ok {
			d.setVC(ev.TID, d.vcOf(ev.TID).Join(exit))
		}
	case vm.EvAcquire:
		if mvc, ok := d.mutexVC[ev.Obj]; ok {
			d.setVC(ev.TID, d.vcOf(ev.TID).Join(mvc))
		}
	case vm.EvRelease:
		// Copy into the mutex's own clock: nothing else references it
		// (Join never returns its argument, CloneObs deep-copies).
		vc := d.vcOf(ev.TID)
		d.mutexVC[ev.Obj] = append(d.mutexVC[ev.Obj][:0], vc...)
		d.setVC(ev.TID, vc.Tick(ev.TID))
	case vm.EvSignal:
		sig := d.vcOf(ev.TID)
		for _, w := range ev.Others {
			d.setVC(w, d.vcOf(w).Join(sig))
		}
		d.setVC(ev.TID, sig.Tick(ev.TID))
	case vm.EvBarrier:
		all := NewVC(0)
		for _, p := range ev.Others {
			all = all.Join(d.vcOf(p))
		}
		for _, p := range ev.Others {
			d.setVC(p, all.Copy().Tick(p))
		}
	}
}

// CloneObs implements vm.Observer with a deep copy. Detection detaches
// its detector before every checkpoint deposit, so clones are rare and
// the copy costs nothing on the per-access path. OnNew is intentionally
// not copied — see its field comment.
func (d *Detector) CloneObs() vm.Observer {
	c := &Detector{
		vcs:      make([]VectorClock, len(d.vcs)),
		mutexVC:  copyClocks(d.mutexVC),
		exitVC:   copyClocks(d.exitVC),
		locs:     make(map[vm.Loc]*locState, len(d.locs)),
		clusters: make(map[ClusterKey]*Report, len(d.clusters)),
		order:    append([]ClusterKey(nil), d.order...),
	}
	for t, vc := range d.vcs {
		if vc != nil {
			c.vcs[t] = vc.Copy()
		}
	}
	for loc, ls := range d.locs {
		cl := *ls
		cl.reads = append([]Access(nil), ls.reads...)
		c.locs[loc] = &cl
	}
	for k, r := range d.clusters {
		cr := *r
		c.clusters[k] = &cr
	}
	return c
}

func copyClocks(m map[int]VectorClock) map[int]VectorClock {
	out := make(map[int]VectorClock, len(m))
	for k, v := range m {
		out[k] = v.Copy()
	}
	return out
}

// SortReports orders reports deterministically by location then pcs; used
// by drivers that aggregate across runs.
func SortReports(rs []*Report) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i].Key, rs[j].Key
		if a.Space != b.Space {
			return a.Space < b.Space
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.FnA != b.FnA {
			return a.FnA < b.FnA
		}
		if a.LnA != b.LnA {
			return a.LnA < b.LnA
		}
		if a.FnB != b.FnB {
			return a.FnB < b.FnB
		}
		return a.LnB < b.LnB
	})
}
