package ckpt

import (
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

const src = `
var g = 0
fn main() {
	for i = 0, 100 { g = g + 1 }
	print("g=", g)
}`

// stateAt runs the program for the given number of steps and returns the
// parked state.
func stateAt(t *testing.T, steps int64) *vm.State {
	t.Helper()
	p := bytecode.MustCompile(src, "ckpttest", bytecode.Options{})
	st := vm.NewState(p, nil, nil)
	res := vm.NewMachine(st, vm.NewRoundRobin()).Run(steps)
	if res.Kind != vm.StopBudget {
		t.Fatalf("run stopped early: %v", res.Kind)
	}
	return st
}

// shape is the entry shape the engine files in a Store: a replay
// checkpoint, a state and its controller. Every mechanics test runs as a
// subtest named for it and checks that each resumed entry still carries
// the payload deposited at its step count.
type shape struct {
	name string
}

var shapes = []shape{{"concrete"}}

// forShapes runs body as one subtest per entry shape.
func forShapes(t *testing.T, body func(t *testing.T, sh shape)) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { body(t, sh) })
	}
}

// at builds the shape's entry parked at steps.
func (sh shape) at(t *testing.T, steps int64) Entry {
	t.Helper()
	return Entry{State: stateAt(t, steps), Ctl: vm.NewRoundRobin()}
}

// add deposits the shape's entry parked at steps.
func (sh shape) add(t *testing.T, s *Store, steps int64) {
	t.Helper()
	s.Add(sh.at(t, steps))
}

// check asserts that e carries exactly the payload at(steps) deposited.
func (sh shape) check(t *testing.T, e Entry, steps int64) {
	t.Helper()
	if e.State.Steps != steps || e.Ctl == nil {
		t.Fatalf("entry state at %d steps (ctl %v), want %d", e.State.Steps, e.Ctl, steps)
	}
}

// resume resumes s at limit and checks the payload of a hit.
func (sh shape) resume(t *testing.T, s *Store, limit int64, accept func(*vm.State) bool) (int64, bool) {
	t.Helper()
	e, steps, ok := s.Resume(limit, accept)
	if ok {
		sh.check(t, e, steps)
	}
	return steps, ok
}

func TestStoreNearestResume(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(8)
		for _, n := range []int64{40, 10, 30} { // out-of-order inserts
			sh.add(t, s, n)
		}
		if s.Len() != 3 {
			t.Fatalf("store len = %d, want 3", s.Len())
		}
		if steps, ok := sh.resume(t, s, 35, nil); !ok || steps != 30 {
			t.Fatalf("Resume(35) = steps %d ok %v, want 30 true", steps, ok)
		}
		if steps, ok := sh.resume(t, s, 40, nil); !ok || steps != 40 {
			t.Fatalf("Resume(40) = steps %d ok %v, want exact-match 40 true", steps, ok)
		}
		if _, ok := sh.resume(t, s, 5, nil); ok {
			t.Fatal("Resume(5) found an entry although none is <= 5")
		}
		if h, m := s.Hits(), s.Misses(); h != 2 || m != 1 {
			t.Errorf("hits/misses = %d/%d, want 2/1", h, m)
		}
	})
}

func TestStoreResumeIsolation(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(4)
		orig := sh.at(t, 20)
		s.Add(orig)

		// Mutating the original after Add must not leak into the store.
		vm.NewMachine(orig.State, vm.NewRoundRobin()).Run(10)

		e, _, ok := s.Resume(20, nil)
		if !ok {
			t.Fatal("no entry")
		}
		sh.check(t, e, 20)
		// Two resumes hand out distinct clones.
		e2, _, _ := s.Resume(20, nil)
		vm.NewMachine(e.State, e.Ctl).Run(5)
		sh.check(t, e2, 20)
	})
}

// TestStoreAcceptAndDedup: a duplicate step count is dropped, and an
// accept callback rejecting the nearest entry falls back to an earlier
// one — with that entry's own payload.
func TestStoreAcceptAndDedup(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(8)
		sh.add(t, s, 10)
		sh.add(t, s, 10) // duplicate step: dropped
		sh.add(t, s, 20)
		if s.Len() != 2 {
			t.Fatalf("dedup failed: len = %d, want 2", s.Len())
		}
		if steps, ok := sh.resume(t, s, 25, func(st *vm.State) bool { return st.Steps < 15 }); !ok || steps != 10 {
			t.Fatalf("accept-filtered resume = steps %d ok %v, want 10 true", steps, ok)
		}
		if _, ok := sh.resume(t, s, 25, func(*vm.State) bool { return false }); ok {
			t.Fatal("Resume succeeded although accept rejected everything")
		}
	})
}

func TestStoreCapacity(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(2)
		for _, n := range []int64{10, 20, 30} {
			sh.add(t, s, n)
		}
		// The third Add thins ({10,20} -> {10}) instead of being refused,
		// so the store keeps covering the whole trace.
		if s.Len() != 2 {
			t.Fatalf("cap ignored: len = %d, want 2", s.Len())
		}
		if s.Thinned() != 1 {
			t.Errorf("thinned = %d, want 1", s.Thinned())
		}
		if steps, ok := sh.resume(t, s, 100, nil); !ok || steps != 30 {
			t.Fatalf("Resume after thinning = steps %d ok %v, want 30 true", steps, ok)
		}
	})
}

// TestStoreStrideThinning drives a long ascending trace through a small
// store: capacity must trigger stride thinning (not insert refusal), the
// surviving entries must stay spread over the whole step range with
// their payloads, and Adds landing inside the stride of a retained
// neighbor must be rejected.
func TestStoreStrideThinning(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(8)
		for n := int64(10); n <= 250; n += 10 {
			sh.add(t, s, n)
		}
		// Deterministic evolution: fill {10..80}; thin to {10,30,50,70}
		// (stride 20), admit 90,110,130,150; thin to {10,50,90,130}
		// (stride 40), admit 170,210,250.
		if got := s.Len(); got != 7 {
			t.Fatalf("len = %d, want 7", got)
		}
		if got := s.Stride(); got != 40 {
			t.Errorf("stride = %d, want 40", got)
		}
		if got := s.Thinned(); got != 8 {
			t.Errorf("thinned = %d, want 8", got)
		}
		// Coverage spans the whole trace: early, middle, and late resumes
		// all find a nearby checkpoint.
		for _, tc := range []struct{ limit, want int64 }{
			{49, 10}, {125, 90}, {249, 210}, {250, 250},
		} {
			if steps, ok := sh.resume(t, s, tc.limit, nil); !ok || steps != tc.want {
				t.Errorf("Resume(%d) = steps %d ok %v, want %d true", tc.limit, steps, ok, tc.want)
			}
		}
		// An Add within the stride of a retained neighbor is a no-op.
		sh.add(t, s, 251)
		if got := s.Len(); got != 7 {
			t.Errorf("stride-violating add was admitted: len = %d, want 7", got)
		}
		// An Add beyond the stride is admitted.
		sh.add(t, s, 290)
		if got := s.Len(); got != 8 {
			t.Errorf("stride-respecting add was rejected: len = %d, want 8", got)
		}
	})
}

// TestStoreDoomedAddDoesNotThin guards the ordering of rejection vs
// thinning: an Add that is inadmissible as the store stands (duplicate
// or stride-violating) arriving at capacity must be refused outright —
// not trigger a thinning that halves the stored checkpoints and then
// insert nothing.
func TestStoreDoomedAddDoesNotThin(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(4)
		for _, n := range []int64{10, 20, 30, 40} {
			sh.add(t, s, n)
		}
		// Duplicate at capacity: no thinning, no change.
		sh.add(t, s, 30)
		if s.Len() != 4 || s.Thinned() != 0 {
			t.Fatalf("duplicate add at capacity thinned the store: len=%d thinned=%d", s.Len(), s.Thinned())
		}
		// Admissible add at capacity thins and inserts: {10,30} stride 20,
		// then 50 lands.
		sh.add(t, s, 50)
		if s.Len() != 3 || s.Thinned() != 2 || s.Stride() != 20 {
			t.Fatalf("after admissible add: len=%d thinned=%d stride=%d, want 3/2/20", s.Len(), s.Thinned(), s.Stride())
		}
		sh.add(t, s, 70) // back to capacity: {10,30,50,70}
		if s.Len() != 4 {
			t.Fatalf("len = %d, want 4", s.Len())
		}
		// Stride-violating add at capacity: refused before any thinning.
		sh.add(t, s, 80)
		if s.Len() != 4 || s.Thinned() != 2 {
			t.Fatalf("stride-violating add at capacity thinned the store: len=%d thinned=%d", s.Len(), s.Thinned())
		}
	})
}

// TestStoreThinningTransactional is the regression for the lossy-Add
// bug: an entry admissible under the *current* stride whose insert would
// be disqualified by the stride a capacity thinning raises must be
// refused outright — otherwise the thinning has already happened by the
// time the raised stride disqualifies the entry, so a doomed Add halves
// the stored checkpoints and inserts nothing.
func TestStoreThinningTransactional(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(4)
		for _, n := range []int64{0, 100, 200, 500} {
			sh.add(t, s, n)
		}
		// Capacity thinning: {0,100,200,500} -> {0,200} (survivor gap 200
		// > 2*stride(0), so stride becomes 200), then 650 lands.
		sh.add(t, s, 650)
		if s.Len() != 3 || s.Thinned() != 2 || s.Stride() != 200 {
			t.Fatalf("setup thinning: len=%d thinned=%d stride=%d, want 3/2/200", s.Len(), s.Thinned(), s.Stride())
		}
		sh.add(t, s, 850) // back to capacity: {0,200,650,850}
		if s.Len() != 4 {
			t.Fatalf("len = %d, want 4", s.Len())
		}

		// 1150 passes the current-stride check (1150-850 = 300 >= 200) but
		// a thinning would keep {0,650} and raise the stride to their gap,
		// 650; 1150-650 = 500 < 650 disqualifies the entry. The store must
		// stay exactly as it was: same entries, no thinning charged.
		sh.add(t, s, 1150)
		if s.Len() != 4 || s.Thinned() != 2 || s.Stride() != 200 {
			t.Fatalf("doomed add mutated the store: len=%d thinned=%d stride=%d, want 4/2/200", s.Len(), s.Thinned(), s.Stride())
		}
		for _, tc := range []struct{ limit, want int64 }{{100, 0}, {500, 200}, {849, 650}, {2000, 850}} {
			if steps, ok := sh.resume(t, s, tc.limit, nil); !ok || steps != tc.want {
				t.Errorf("Resume(%d) = steps %d ok %v, want %d true (entries must be untouched)", tc.limit, steps, ok, tc.want)
			}
		}

		// A genuinely admissible entry still thins and lands: {0,650}
		// stride 650, then 1300 (1300-650 = 650 >= 650) inserts.
		sh.add(t, s, 1300)
		if s.Len() != 3 || s.Thinned() != 4 || s.Stride() != 650 {
			t.Fatalf("admissible add after refusal: len=%d thinned=%d stride=%d, want 3/4/650", s.Len(), s.Thinned(), s.Stride())
		}
		if steps, ok := sh.resume(t, s, 2000, nil); !ok || steps != 1300 {
			t.Fatalf("Resume(2000) = steps %d ok %v, want 1300 true", steps, ok)
		}
	})
}

// TestStoreCapacityOne guards the degenerate bound: a single-entry store
// must never exceed one entry (thinning cannot shrink a one-entry
// population, so further Adds are refused outright).
func TestStoreCapacityOne(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(1)
		for _, n := range []int64{10, 20, 30} {
			sh.add(t, s, n)
		}
		if s.Len() != 1 {
			t.Fatalf("max=1 store holds %d entries", s.Len())
		}
		if steps, ok := sh.resume(t, s, 100, nil); !ok || steps != 10 {
			t.Fatalf("Resume = steps %d ok %v, want 10 true", steps, ok)
		}
	})
}

// flatCtl is a deliberately non-cloneable controller.
type flatCtl struct{}

func (flatCtl) PickNext(st *vm.State, runnable []int) int { return runnable[0] }

// TestSymStoreUncloneableForkRefused: an entry whose controller cannot
// be cloned cannot be replayed faithfully, so it must not be stored at
// all.
func TestSymStoreUncloneableForkRefused(t *testing.T) {
	s := NewStore(8)
	s.Add(Entry{State: stateAt(t, 20), Ctl: flatCtl{}})
	if s.Len() != 0 {
		t.Fatalf("uncloneable controller was stored: len = %d", s.Len())
	}
}

// TestStoreConcurrent exercises Add/Resume races under -race.
func TestStoreConcurrent(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		s := NewStore(16)
		base := sh.at(t, 25)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if i%3 == 0 {
						s.Add(base)
					}
					if e, _, ok := s.Resume(int64(25+i), nil); ok && e.State.Steps != 25 {
						t.Errorf("bad resume: %d", e.State.Steps)
					}
				}
			}()
		}
		wg.Wait()
		if s.Len() != 1 {
			t.Fatalf("concurrent duplicate Adds leaked: len = %d, want 1", s.Len())
		}
	})
}
