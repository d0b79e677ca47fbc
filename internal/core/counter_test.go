package core

import (
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
// the object classes it was fed.
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
}
