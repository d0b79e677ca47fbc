package race

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// refDetector is a plain map-based implementation of the Detector's
// algorithm, kept as a test oracle: one heap Access per access, a map
// of reads per location, and the reads walked in ascending TID when a
// write checks them (the order the Detector keeps by construction).
type refDetector struct {
	vcs      map[int]VectorClock
	mutexVC  map[int]VectorClock
	exitVC   map[int]VectorClock
	locs     map[vm.Loc]*refLoc
	clusters map[ClusterKey]*Report
	order    []ClusterKey
}

type refLoc struct {
	lastWrite *Access
	reads     map[int]*Access
}

func newRefDetector() *refDetector {
	return &refDetector{
		vcs:      map[int]VectorClock{},
		mutexVC:  map[int]VectorClock{},
		exitVC:   map[int]VectorClock{},
		locs:     map[vm.Loc]*refLoc{},
		clusters: map[ClusterKey]*Report{},
	}
}

func (d *refDetector) Reports() []*Report {
	out := make([]*Report, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.clusters[k])
	}
	return out
}

func (d *refDetector) vcOf(tid int) VectorClock {
	vc, ok := d.vcs[tid]
	if !ok {
		vc = NewVC(tid+1).Set(tid, 1)
		d.vcs[tid] = vc
	}
	return vc
}

func (d *refDetector) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	vc := d.vcOf(tid)
	cur := &Access{TID: tid, Write: write, PC: pc, TInstr: tInstr, Clock: vc.Get(tid), Global: st.Steps}
	ls := d.locs[loc]
	if ls == nil {
		ls = &refLoc{reads: map[int]*Access{}}
		d.locs[loc] = ls
	}
	report := func(prev *Access) {
		key := normKey(loc, prev.PC, cur.PC)
		if r, ok := d.clusters[key]; ok {
			r.Instances++
			return
		}
		d.clusters[key] = &Report{Key: key, Loc: loc, First: *prev, Second: *cur, Instances: 1}
		d.order = append(d.order, key)
	}
	if w := ls.lastWrite; w != nil && w.TID != tid && w.Clock > vc.Get(w.TID) {
		report(w)
	}
	if write {
		tids := make([]int, 0, len(ls.reads))
		for rt := range ls.reads {
			tids = append(tids, rt)
		}
		sort.Ints(tids)
		for _, rt := range tids {
			if r := ls.reads[rt]; rt != tid && r.Clock > vc.Get(rt) {
				report(r)
			}
		}
		ls.lastWrite = cur
		ls.reads = map[int]*Access{}
	} else {
		ls.reads[tid] = cur
	}
}

func (d *refDetector) OnSync(st *vm.State, ev vm.SyncEvent) {
	switch ev.Kind {
	case vm.EvSpawn:
		parent := d.vcOf(ev.TID)
		d.vcs[ev.Obj] = d.vcOf(ev.Obj).Join(parent)
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

// randLocs is the location pool of the random event sequences: global
// elements, small and wide (64 and past), and heap cells of two blocks.
var randLocs = []vm.Loc{
	{Space: vm.SpaceGlobal, Obj: 0},
	{Space: vm.SpaceGlobal, Obj: 1, Elem: 2},
	{Space: vm.SpaceGlobal, Obj: 3, Elem: 63},
	{Space: vm.SpaceGlobal, Obj: 3, Elem: 64},
	{Space: vm.SpaceGlobal, Obj: 1, Elem: 104},
	{Space: vm.SpaceHeap, Obj: 1},
	{Space: vm.SpaceHeap, Obj: 1, Elem: 3},
	{Space: vm.SpaceHeap, Obj: 2, Elem: 70},
}

// randomThreads returns a random non-empty subset of [0, n).
func randomThreads(rng *rand.Rand, n int) []int {
	var out []int
	for t := 0; t < n; t++ {
		if rng.Intn(2) == 0 {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = append(out, rng.Intn(n))
	}
	return out
}

// TestDetectorMatchesReference drives the Detector and the map-based
// reference with the same random event sequences — 1 to 6 threads,
// accesses to the location pool from a handful of source lines, and
// spawn, exit, join, lock, unlock, signal and barrier events — and
// requires identical Reports after every event: order, key, location,
// both accesses and instance counts.
func TestDetectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clusters := 0
	for seq := 0; seq < 400; seq++ {
		n := 1 + rng.Intn(6)
		d, ref := NewDetector(), newRefDetector()
		st := &vm.State{}
		for ev := 0; ev < 120; ev++ {
			st.Steps++
			tid := rng.Intn(n)
			if rng.Intn(3) > 0 {
				loc := randLocs[rng.Intn(len(randLocs))]
				write := rng.Intn(3) == 0
				pc := bytecode.PCRef{Fn: rng.Intn(2), PC: rng.Intn(40), Line: int32(1 + rng.Intn(5))}
				tInstr := int64(ev)
				d.OnAccess(st, tid, loc, write, pc, tInstr)
				ref.OnAccess(st, tid, loc, write, pc, tInstr)
			} else {
				var se vm.SyncEvent
				switch rng.Intn(7) {
				case 0:
					se = vm.SyncEvent{Kind: vm.EvSpawn, TID: tid, Obj: rng.Intn(n)}
				case 1:
					se = vm.SyncEvent{Kind: vm.EvExit, TID: tid}
				case 2:
					se = vm.SyncEvent{Kind: vm.EvJoin, TID: tid, Obj: rng.Intn(n)}
				case 3:
					se = vm.SyncEvent{Kind: vm.EvAcquire, TID: tid, Obj: rng.Intn(2)}
				case 4:
					se = vm.SyncEvent{Kind: vm.EvRelease, TID: tid, Obj: rng.Intn(2)}
				case 5:
					se = vm.SyncEvent{Kind: vm.EvSignal, TID: tid, Obj: 0, Others: randomThreads(rng, n)}
				case 6:
					se = vm.SyncEvent{Kind: vm.EvBarrier, TID: tid, Obj: 0, Others: randomThreads(rng, n)}
				}
				d.OnSync(st, se)
				ref.OnSync(st, se)
			}
			if got, want := d.Reports(), ref.Reports(); !reflect.DeepEqual(got, want) {
				t.Fatalf("sequence %d (%d threads), event %d: reports diverge\n got  %s\n want %s",
					seq, n, ev, reportValues(got), reportValues(want))
			}
		}
		clusters += len(d.Reports())
	}
	if clusters < 400 {
		t.Fatalf("the sequences found only %d race clusters; the comparison is nearly vacuous", clusters)
	}
}

func reportValues(rs []*Report) string {
	var out []Report
	for _, r := range rs {
		out = append(out, *r)
	}
	return fmt.Sprintf("%#v", out)
}
