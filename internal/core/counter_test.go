package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// TestAccessCounterTouchedWriteAllocFree guards the counter's write
// path: writing a global that is already touched neither allocates nor
// copies the counter's tables — on a counter of its own, and on both
// sides of a clone that still shares them.
func TestAccessCounterTouchedWriteAllocFree(t *testing.T) {
	st := &vm.State{}
	loc := vm.Loc{Space: vm.SpaceGlobal, Obj: 70}
	ac := newAccessCounter()
	ac.OnAccess(st, 0, loc, true, bytecode.PCRef{Line: 2}, 0)
	clone := ac.CloneObs().(*accessCounter)
	for i, c := range []*accessCounter{ac, clone} {
		allocs := testing.AllocsPerRun(100, func() {
			c.OnAccess(st, 1, loc, true, bytecode.PCRef{Line: 3}, 0)
		})
		if allocs != 0 {
			t.Errorf("side %d of the clone: write to a touched global allocates %v times, want 0", i, allocs)
		}
	}
	if &ac.globals[0] != &clone.globals[0] {
		t.Error("a write to a touched global copied the shared touched set")
	}
}

// TestAccessCounterTouchedSet checks the touched set's bitset against
// the object classes it was fed, and its wire order: globals ascending,
// then the heap class.
func TestAccessCounterTouchedSet(t *testing.T) {
	st := &vm.State{}
	ac := newAccessCounter()
	for _, loc := range []vm.Loc{
		{Space: vm.SpaceGlobal, Obj: 130},
		{Space: vm.SpaceHeap, Obj: 9, Elem: 2},
		{Space: vm.SpaceGlobal, Obj: 0, Elem: 5},
		{Space: vm.SpaceGlobal, Obj: 64},
		{Space: vm.SpaceGlobal, Obj: 63},
	} {
		ac.OnAccess(st, 0, loc, false, bytecode.PCRef{}, 0)
	}
	for _, g := range []int64{0, 63, 64, 130} {
		if !ac.touchedObj(vm.SpaceGlobal, g) {
			t.Errorf("global %d not touched", g)
		}
	}
	for _, g := range []int64{1, 62, 65, 129, 131, 1000} {
		if ac.touchedObj(vm.SpaceGlobal, g) {
			t.Errorf("global %d touched", g)
		}
	}
	if !ac.touchedObj(vm.SpaceHeap, 3) {
		t.Error("heap class not touched")
	}
	want := []objWire{{0, 0}, {0, 63}, {0, 64}, {0, 130}, {uint8(vm.SpaceHeap), 0}}
	if got := touchedObjs(ac); !reflect.DeepEqual(got, want) {
		t.Errorf("touched wire order = %v, want %v", got, want)
	}
}

// TestRestoreRejectsForeignCounterClass pins the access-counter decode
// check: a counter naming an object class the snapshot's program cannot
// produce — a global out of range, a negative object, a heap class
// other than 0, an unknown space — fails Restore, and the tier imports
// nothing.
func TestRestoreRejectsForeignCounterClass(t *testing.T) {
	seed := newSnapshotTestTier()
	runOnTier(t, seed, detectSeedSrc, []int64{3})
	nGlobals := int64(len(seed.Snapshot().Program.Globals))
	for _, tc := range []struct {
		name  string
		reads bool // corrupt a read bucket instead of the touched set
		bad   objWire
	}{
		{"global-out-of-range", false, objWire{uint8(vm.SpaceGlobal), nGlobals}},
		{"global-negative", false, objWire{uint8(vm.SpaceGlobal), -1}},
		{"heap-nonzero", false, objWire{uint8(vm.SpaceHeap), 5}},
		{"unknown-space", false, objWire{7, 0}},
		{"read-out-of-range", true, objWire{uint8(vm.SpaceGlobal), nGlobals + 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := gobRoundTrip(t, seed.Snapshot())
			corruptCounter(t, snap, func(w *acWire) {
				if tc.reads {
					w.Reads = append(w.Reads, readWire{Space: tc.bad.Space, Obj: tc.bad.Obj, N: 1})
				} else {
					w.Touched = append(w.Touched, tc.bad)
				}
			})
			tier := newSnapshotTestTier()
			if err := tier.Restore(snap); err == nil {
				t.Fatal("Restore accepted a counter class outside the program")
			}
			if s, cold := tier.Stats(), newSnapshotTestTier().Stats(); s != cold || tier.Runs() != 0 {
				t.Errorf("failed Restore imported state: stats %+v, runs %d", s, tier.Runs())
			}
		})
	}
}

// corruptCounter rewrites the access-counter observer of the last
// concrete checkpoint in snap with edit.
func corruptCounter(t *testing.T, snap *TierSnapshot, edit func(*acWire)) {
	t.Helper()
	for i := len(snap.Concrete) - 1; i >= 0; i-- {
		obs := snap.Concrete[i].State.Observers
		for j := range obs {
			if obs[j].Kind != obsAccessCounter {
				continue
			}
			var w acWire
			if err := gob.NewDecoder(bytes.NewReader(obs[j].Data)).Decode(&w); err != nil {
				t.Fatalf("decode counter: %v", err)
			}
			edit(&w)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(w); err != nil {
				t.Fatalf("encode counter: %v", err)
			}
			obs[j].Data = buf.Bytes()
			return
		}
	}
	t.Fatal("snapshot holds no access counter to corrupt")
}
