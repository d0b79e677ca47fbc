package race

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

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

// locState is the per-location detector metadata.
type locState struct {
	lastWrite *Access
	reads     map[int]*Access // by reader tid
}

// Detector is a happens-before race detector implementing vm.Observer.
// Its entire state is cloneable, so it forks along with execution states
// during multi-path analysis. Cloning is copy-on-write: CloneObs only
// marks both detectors shared, and the first mutation on either side
// deep-copies the tables (own) — so detection deposits, which clone the
// state (and its observers) every few hundred instructions, pay nothing
// for detectors that are never written again.
type Detector struct {
	vcs      map[int]VectorClock
	mutexVC  map[int]VectorClock
	exitVC   map[int]VectorClock
	locs     map[vm.Loc]*locState
	clusters map[ClusterKey]*Report
	order    []ClusterKey // report order, deterministic

	// shared is 1 while the tables above may be referenced by another
	// detector (set by CloneObs on both sides, cleared by own). It is
	// accessed atomically: concurrent CloneObs calls on one parked state
	// must not race with each other.
	shared uint32

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
		vcs:      map[int]VectorClock{},
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

// own deep-copies the tables if they are still shared with another
// detector. Every mutating entry point calls it first; the read-only
// Reports never does, so an unmutated clone chain shares one set of
// tables end to end.
func (d *Detector) own() {
	if atomic.LoadUint32(&d.shared) == 0 {
		return
	}
	vcs := make(map[int]VectorClock, len(d.vcs))
	for k, v := range d.vcs {
		vcs[k] = v.Copy()
	}
	mutexVC := make(map[int]VectorClock, len(d.mutexVC))
	for k, v := range d.mutexVC {
		mutexVC[k] = v.Copy()
	}
	exitVC := make(map[int]VectorClock, len(d.exitVC))
	for k, v := range d.exitVC {
		exitVC[k] = v.Copy()
	}
	locs := make(map[vm.Loc]*locState, len(d.locs))
	for loc, ls := range d.locs {
		nl := &locState{reads: make(map[int]*Access, len(ls.reads))}
		if ls.lastWrite != nil {
			w := *ls.lastWrite
			nl.lastWrite = &w
		}
		for t, a := range ls.reads {
			c := *a
			nl.reads[t] = &c
		}
		locs[loc] = nl
	}
	clusters := make(map[ClusterKey]*Report, len(d.clusters))
	for k, r := range d.clusters {
		c := *r
		clusters[k] = &c
	}
	d.vcs, d.mutexVC, d.exitVC, d.locs, d.clusters = vcs, mutexVC, exitVC, locs, clusters
	d.order = append([]ClusterKey(nil), d.order...)
	atomic.StoreUint32(&d.shared, 0)
}

func (d *Detector) vcOf(tid int) VectorClock {
	vc, ok := d.vcs[tid]
	if !ok {
		vc = NewVC(tid+1).Set(tid, 1)
		d.vcs[tid] = vc
	}
	return vc
}

// OnAccess implements vm.Observer: the FastTrack-style happens-before
// check against the last write and the concurrent reads of the location.
func (d *Detector) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	d.own()
	vc := d.vcOf(tid)
	cur := &Access{TID: tid, Write: write, PC: pc, TInstr: tInstr, Clock: vc.Get(tid), Global: st.Steps}
	ls := d.locs[loc]
	if ls == nil {
		ls = &locState{reads: map[int]*Access{}}
		d.locs[loc] = ls
	}

	report := func(prev *Access) {
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

	if w := ls.lastWrite; w != nil && w.TID != tid && w.Clock > vc.Get(w.TID) {
		// Last write is concurrent with this access: write-write or
		// write-read race.
		report(w)
	}
	if write {
		for rt, r := range ls.reads {
			if rt != tid && r.Clock > vc.Get(rt) {
				report(r) // read-write race
			}
		}
		ls.lastWrite = cur
		ls.reads = map[int]*Access{}
	} else {
		ls.reads[tid] = cur
	}
}

// OnSync implements vm.Observer: maintains the happens-before relation
// over spawn/join/lock/unlock/signal/barrier.
func (d *Detector) OnSync(st *vm.State, ev vm.SyncEvent) {
	d.own()
	switch ev.Kind {
	case vm.EvSpawn:
		parent := d.vcOf(ev.TID)
		child := d.vcOf(ev.Obj).Join(parent)
		d.vcs[ev.Obj] = child
		d.vcs[ev.TID] = parent.Tick(ev.TID)
	case vm.EvExit:
		d.exitVC[ev.TID] = d.vcOf(ev.TID).Copy()
	case vm.EvJoin:
		if exit, ok := d.exitVC[ev.Obj]; ok {
			d.vcs[ev.TID] = d.vcOf(ev.TID).Join(exit)
		}
	case vm.EvAcquire:
		if mvc, ok := d.mutexVC[ev.Obj]; ok {
			d.vcs[ev.TID] = d.vcOf(ev.TID).Join(mvc)
		}
	case vm.EvRelease:
		d.mutexVC[ev.Obj] = d.vcOf(ev.TID).Copy()
		d.vcs[ev.TID] = d.vcOf(ev.TID).Tick(ev.TID)
	case vm.EvSignal:
		sig := d.vcOf(ev.TID)
		for _, w := range ev.Others {
			d.vcs[w] = d.vcOf(w).Join(sig)
		}
		d.vcs[ev.TID] = sig.Tick(ev.TID)
	case vm.EvBarrier:
		all := NewVC(0)
		for _, p := range ev.Others {
			all = all.Join(d.vcOf(p))
		}
		for _, p := range ev.Others {
			d.vcs[p] = all.Copy().Tick(p)
		}
	}
}

// CloneObs implements vm.Observer. It is O(1): the clone shares the
// source's tables and both sides are marked shared, deferring the deep
// copy to whichever side mutates first (own). OnNew is intentionally not
// copied — see its field comment.
func (d *Detector) CloneObs() vm.Observer {
	atomic.StoreUint32(&d.shared, 1)
	return &Detector{
		vcs:      d.vcs,
		mutexVC:  d.mutexVC,
		exitVC:   d.exitVC,
		locs:     d.locs,
		clusters: d.clusters,
		order:    d.order[:len(d.order):len(d.order)],
		shared:   1,
	}
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
