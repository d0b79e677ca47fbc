package ckpt

import (
	"slices"
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

// shape is one of the two entry shapes the engine files in a Store: a
// concrete replay checkpoint (no forks, zero counters) or an
// exploration-mainline checkpoint (a pending fork plus the prefix's
// exploration counters). Store mechanics must not depend on the shape,
// so every mechanics test runs once per shape and checks that each
// resumed entry still carries the payload deposited at its step count.
type shape struct {
	name     string
	mainline bool
}

var shapes = []shape{{"concrete", false}, {"mainline", true}}

// forShapes runs body as one subtest per entry shape.
func forShapes(t *testing.T, body func(t *testing.T, sh shape)) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { body(t, sh) })
	}
}

// at builds the shape's entry parked at steps.
func (sh shape) at(t *testing.T, steps int64) Entry {
	t.Helper()
	e := Entry{State: stateAt(t, steps), Ctl: vm.NewRoundRobin()}
	if sh.mainline {
		e.Forks = []PendingFork{{State: stateAt(t, steps+2), Ctl: vm.NewRoundRobin()}}
		e.Branches, e.ForksUsed, e.Dropped = int(steps/10), int(steps/100), 1
	}
	return e
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
	if !sh.mainline {
		if len(e.Forks) != 0 || e.Branches != 0 || e.ForksUsed != 0 || e.Dropped != 0 {
			t.Fatalf("concrete entry @%d grew a payload: %+v", steps, e)
		}
		return
	}
	if len(e.Forks) != 1 || e.Forks[0].State.Steps != steps+2 || e.Forks[0].Ctl == nil {
		t.Fatalf("mainline entry @%d lost its pending fork: %+v", steps, e.Forks)
	}
	if e.Branches != int(steps/10) || e.ForksUsed != int(steps/100) || e.Dropped != 1 {
		t.Fatalf("mainline entry @%d counters = %d/%d/%d, want %d/%d/1",
			steps, e.Branches, e.ForksUsed, e.Dropped, steps/10, steps/100)
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

// keys lists the step counts a store holds, in order.
func keys(s *Store) []int64 {
	var out []int64
	for _, e := range s.Export().Entries {
		out = append(out, e.State.Steps)
	}
	return out
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

// TestStoreExportImport covers the store's durability boundary: an
// exported store imported into a fresh one keeps every entry's payload,
// its thinning position, and its hit counters — so the restored store
// admits and thins exactly like the original — and Import drops
// duplicate step counts and entries past capacity.
func TestStoreExportImport(t *testing.T) {
	forShapes(t, func(t *testing.T, sh shape) {
		orig := NewStore(4)
		for _, n := range []int64{10, 20, 30, 40, 50} { // thins to {10,30} stride 20, then 50
			sh.add(t, orig, n)
		}
		sh.resume(t, orig, 35, nil) // hit
		sh.resume(t, orig, 5, nil)  // miss

		x := orig.Export()
		if len(x.Entries) != 3 || x.Stride != 20 || x.Thinned != 2 || x.Hits != 1 || x.Misses != 1 {
			t.Fatalf("export = %d entries stride %d thinned %d hits %d misses %d, want 3/20/2/1/1",
				len(x.Entries), x.Stride, x.Thinned, x.Hits, x.Misses)
		}
		back := NewStore(4)
		sh.add(t, back, 15) // Import replaces existing content
		back.Import(x)
		if back.Len() != 3 || back.Stride() != 20 || back.Thinned() != 2 || back.Hits() != 1 || back.Misses() != 1 {
			t.Fatalf("imported store: len %d stride %d thinned %d hits %d misses %d, want 3/20/2/1/1",
				back.Len(), back.Stride(), back.Thinned(), back.Hits(), back.Misses())
		}
		var mem int64 // every stored state, pending forks included
		for _, e := range x.Entries {
			mem += e.State.MemEstimate()
			for _, f := range e.Forks {
				mem += f.State.MemEstimate()
			}
		}
		if back.MemBytes() != mem || orig.MemBytes() != mem {
			t.Errorf("MemBytes = %d imported, %d original, want %d", back.MemBytes(), orig.MemBytes(), mem)
		}
		for _, n := range []int64{10, 30, 50} {
			if steps, ok := sh.resume(t, back, n, nil); !ok || steps != n {
				t.Errorf("imported Resume(%d) = steps %d ok %v", n, steps, ok)
			}
		}

		// Same Adds, same admission and thinning: 60 is inside the stride,
		// 70 fills the store, 90 thins {10,30,50,70} to {10,50} (stride
		// 40) and lands.
		for _, s := range []*Store{orig, back} {
			for _, n := range []int64{60, 70, 90} {
				sh.add(t, s, n)
			}
		}
		if a, b, want := keys(orig), keys(back), []int64{10, 50, 90}; !slices.Equal(a, want) || !slices.Equal(b, want) {
			t.Fatalf("post-import admission diverged: original %v, imported %v, want [10 50 90]", a, b)
		}
		if orig.Stride() != 40 || back.Stride() != 40 || orig.Thinned() != 4 || back.Thinned() != 4 {
			t.Fatalf("post-import thinning diverged: stride %d/%d thinned %d/%d, want 40/4",
				orig.Stride(), back.Stride(), orig.Thinned(), back.Thinned())
		}

		// Import files by step count, keeps the first of a duplicate, and
		// stops at capacity.
		first30 := sh.at(t, 30)
		in := []Entry{first30, sh.at(t, 10), sh.at(t, 30), sh.at(t, 20), sh.at(t, 40), sh.at(t, 50)}
		capped := NewStore(4)
		capped.Import(Exported{Entries: in})
		got := capped.Export().Entries
		if k := keys(capped); !slices.Equal(k, []int64{10, 20, 30, 40}) {
			t.Fatalf("import kept %v, want [10 20 30 40]", k)
		}
		if got[2].State != first30.State {
			t.Error("import kept the later duplicate, want the first")
		}
	})
}
