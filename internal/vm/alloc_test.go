// Allocation and aliasing guards for the interpreter hot path and the
// copy-on-write state snapshots. The file is an external test package so
// it can drive the same workloads the checked-in benchmarks use
// (internal/workloads imports the engine, which imports vm).
package vm_test

import (
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// tightLoopSrc is a pure thread-local arithmetic loop: the whole body is
// LOADL/PUSH/binop/STOREL traffic whose values stay inside the expr
// intern range, so a warm interpreter must execute it without a single
// heap allocation. The & mask keeps i within [0, 128).
const tightLoopSrc = `
fn main() {
	let i = 0
	while 1 {
		i = (i + 1) & 127
	}
}`

func tightLoopMachine(t *testing.T, noFuse bool) *vm.Machine {
	t.Helper()
	p := bytecode.MustCompile(tightLoopSrc, "tightloop", bytecode.Options{NoFuse: noFuse})
	st := vm.NewState(p, nil, nil)
	m := vm.NewMachine(st, vm.NewRoundRobin())
	// Warm up: let the operand stack and runnable scratch reach their
	// steady-state capacity.
	if res := m.Run(2_000); res.Kind != vm.StopBudget {
		t.Fatalf("warm-up run: %v", res.Kind)
	}
	return m
}

// TestExecAllocFree is the regression guard for the interpreter's
// allocation-lean hot path (intern table + superinstruction fusion): a
// tight arithmetic loop must execute with zero allocations per
// instruction, fused and unfused alike. Before the intern table, every
// arithmetic op minted a Const on the heap.
func TestExecAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		noFuse bool
	}{
		{"fused", false},
		{"unfused", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tightLoopMachine(t, tc.noFuse)
			allocs := testing.AllocsPerRun(20, func() {
				if res := m.Run(5_000); res.Kind != vm.StopBudget {
					t.Fatalf("run: %v", res.Kind)
				}
			})
			if allocs != 0 {
				t.Errorf("tight loop allocates %v times per 5000 instructions, want 0", allocs)
			}
		})
	}
}

// TestStepAllocFree guards Machine.Step: it sets the stop aside rather
// than building a closure per call, so stepping a warm machine allocates
// nothing.
func TestStepAllocFree(t *testing.T) {
	m := tightLoopMachine(t, false)
	allocs := testing.AllocsPerRun(100, func() {
		if res := m.Step(); res.Kind != vm.StopBreak {
			t.Fatalf("step: %v", res.Kind)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v times per call, want 0", allocs)
	}
}

// countLoopSrc is tightLoopSrc without the mask: i leaves the intern
// range after 1,024 iterations, so every ADD yields a non-interned
// constant.
const countLoopSrc = `
fn main() {
	let i = 0
	while 1 {
		i = i + 1
	}
}`

// TestExecConstSlab guards the machine's constant slab: past the intern
// range, a counting loop mints one constant per iteration (about 714
// per 5,000 instructions), and the slab serves them 32 to an
// allocation, fused and unfused alike.
func TestExecConstSlab(t *testing.T) {
	for _, tc := range []struct {
		name   string
		noFuse bool
	}{
		{"fused", false},
		{"unfused", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := bytecode.MustCompile(countLoopSrc, "countloop", bytecode.Options{NoFuse: tc.noFuse})
			m := vm.NewMachine(vm.NewState(p, nil, nil), vm.NewRoundRobin())
			// Warm up past the intern range.
			if res := m.Run(10_000); res.Kind != vm.StopBudget {
				t.Fatalf("warm-up run: %v", res.Kind)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if res := m.Run(5_000); res.Kind != vm.StopBudget {
					t.Fatalf("run: %v", res.Kind)
				}
			})
			if allocs > 25 {
				t.Errorf("counting loop allocates %v times per 5000 instructions, want <= 25", allocs)
			}
		})
	}
}

// cloneSink keeps State.Clone results live so AllocsPerRun measures the
// clone itself, not a dead store the compiler elides.
var cloneSink *vm.State

// checkpointState reproduces the BenchmarkVM_Checkpoint setup verbatim
// (the memcached workload under a 5000-instruction budget, which it
// finishes within): heap blocks, globals, outputs, and thread history
// all populated.
func checkpointState(t *testing.T) *vm.State {
	t.Helper()
	return memcachedRun(t, 5_000)
}

// midState parks the memcached workload mid-execution (it finishes at
// ~336 instructions), so every layer is still live and mutable.
func midState(t *testing.T) *vm.State {
	t.Helper()
	st := memcachedRun(t, 150)
	if st.Halted {
		t.Fatal("memcached finished within the warm-up budget; midState needs a live state")
	}
	return st
}

func memcachedRun(t *testing.T, budget int64) *vm.State {
	t.Helper()
	w := workloads.Memcached()
	p := w.Compile()
	st := vm.NewState(p, w.Args, w.Inputs)
	vm.NewMachine(st, vm.NewRoundRobin()).Run(budget)
	return st
}

// TestCloneAllocs is the O(1)-snapshot guard: on the
// BenchmarkVM_Checkpoint workload, State.Clone must cost at most 2
// allocations regardless of how much state the run accumulated. With
// the persistent representation a clone is one State allocation (plus
// one slice header per observer, of which this state has none); the
// bound leaves headroom of exactly one before the guard trips.
func TestCloneAllocs(t *testing.T) {
	st := checkpointState(t)
	allocs := testing.AllocsPerRun(100, func() {
		cloneSink = st.Clone()
	})
	if allocs > 2 {
		t.Errorf("State.Clone costs %v allocs on the checkpoint workload, want <= 2", allocs)
	}
}

// TestCloneAliasingHammer hammers the copy-on-write invariant in both
// directions: after a clone, running either side must not bleed into the
// other, and a child that replays the same schedule as its parent must
// land on the identical state. Under -race this also proves the write
// barriers never touch memory the other side still reads — the two
// machines run concurrently in the final phase.
func TestCloneAliasingHammer(t *testing.T) {
	type fp struct{ mem, out string }
	snap := func(st *vm.State) fp { return fp{st.MemoryFingerprint(), st.RenderOutputs()} }

	t.Run("parent-first", func(t *testing.T) {
		parent := midState(t)
		child := parent.Clone()
		base := snap(parent)
		if got := snap(child); got != base {
			t.Fatalf("clone diverges before any write:\nparent: %+v\nchild:  %+v", base, got)
		}
		// Mutate the parent; the child must still see the snapshot.
		vm.NewMachine(parent, vm.NewRoundRobin()).Run(100)
		after := snap(parent)
		if after == base {
			t.Fatal("100 instructions of memcached left memory and outputs untouched; hammer is inert")
		}
		if got := snap(child); got != base {
			t.Fatalf("parent writes leaked into the clone:\nwant: %+v\ngot:  %+v", base, got)
		}
		// The child replaying the same deterministic schedule must
		// converge on the parent's state — proof nothing was lost either.
		vm.NewMachine(child, vm.NewRoundRobin()).Run(100)
		if got := snap(child); got != after {
			t.Fatalf("child replay of the same schedule diverged:\nparent: %+v\nchild:  %+v", after, got)
		}
	})

	t.Run("child-first", func(t *testing.T) {
		parent := midState(t)
		child := parent.Clone()
		base := snap(parent)
		// Mutate the child; the parent must still see the snapshot.
		vm.NewMachine(child, vm.NewRoundRobin()).Run(100)
		if got := snap(parent); got != base {
			t.Fatalf("child writes leaked into the parent:\nwant: %+v\ngot:  %+v", base, got)
		}
		vm.NewMachine(parent, vm.NewRoundRobin()).Run(100)
		if got, want := snap(parent), snap(child); got != want {
			t.Fatalf("parent replay of the same schedule diverged:\nchild:  %+v\nparent: %+v", want, got)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Reference: one state run straight through.
		ref := midState(t)
		vm.NewMachine(ref, vm.NewRoundRobin()).Run(120)
		want := snap(ref)

		parent := midState(t)
		clones := make([]*vm.State, 8)
		for i := range clones {
			clones[i] = parent.Clone()
		}
		var wg sync.WaitGroup
		for _, st := range append(clones, parent) {
			st := st
			wg.Add(1)
			go func() {
				defer wg.Done()
				vm.NewMachine(st, vm.NewRoundRobin()).Run(120)
			}()
		}
		wg.Wait()
		for i, st := range append(clones, parent) {
			if got := snap(st); got != want {
				t.Errorf("concurrent run %d diverged from the sequential reference:\nwant: %+v\ngot:  %+v", i, want, got)
			}
		}
	})
}

// TestFusedMatchesUnfused locks the superinstruction overlay to the
// plain interpreter instruction by instruction: the same program
// compiled with and without fusion must land on identical memory,
// identical per-thread instruction counts, and identical total steps at
// every budget — including budgets that land inside a fused sequence
// (where the fused machine must fall back to single-instruction
// execution rather than overshoot).
func TestFusedMatchesUnfused(t *testing.T) {
	src := `
var g = 0
fn main() {
	let i = 0
	let acc = 0
	while i < 40 {
		i = i + 1
		acc = acc + (i * 3) - 1
		if i > 20 {
			acc = acc - 2
		}
	}
	g = acc
	print("acc=", acc)
}`
	fused := bytecode.MustCompile(src, "fusecheck", bytecode.Options{})
	plain := bytecode.MustCompile(src, "fusecheck", bytecode.Options{NoFuse: true})
	if fused.FusedCount() == 0 {
		t.Fatal("fusion pass found nothing to fuse in an arithmetic loop")
	}
	if plain.FusedCount() != 0 {
		t.Fatal("NoFuse program carries a fusion overlay")
	}
	for _, budget := range []int64{-1, 1, 2, 3, 5, 7, 50, 123, 124, 125, 126, 127, 500} {
		fs := vm.NewState(fused, nil, nil)
		ps := vm.NewState(plain, nil, nil)
		fres := vm.NewMachine(fs, vm.NewRoundRobin()).Run(budget)
		pres := vm.NewMachine(ps, vm.NewRoundRobin()).Run(budget)
		if fres.Kind != pres.Kind || fres.Steps != pres.Steps {
			t.Fatalf("budget %d: fused (%v, %d steps) != plain (%v, %d steps)",
				budget, fres.Kind, fres.Steps, pres.Kind, pres.Steps)
		}
		if fs.Steps != ps.Steps || fs.Threads[0].Instrs != ps.Threads[0].Instrs {
			t.Fatalf("budget %d: counters diverge: steps %d/%d instrs %d/%d",
				budget, fs.Steps, ps.Steps, fs.Threads[0].Instrs, ps.Threads[0].Instrs)
		}
		if fp, pp := fs.MemoryFingerprint(), ps.MemoryFingerprint(); fp != pp {
			t.Fatalf("budget %d: memory diverges:\nfused: %s\nplain: %s", budget, fp, pp)
		}
		if fs.RenderOutputs() != ps.RenderOutputs() {
			t.Fatalf("budget %d: outputs diverge", budget)
		}
	}
}

// TestFusedResumesMidSequence parks the unfused interpreter inside what
// the overlay considers one superinstruction, then hands the state to a
// fused machine: execution must resume with the remaining original
// instructions (interior pcs carry no overlay entry) and converge on the
// same final state.
func TestFusedResumesMidSequence(t *testing.T) {
	src := `
var g = 0
fn main() {
	let i = 0
	while i < 10 {
		i = i + 1
	}
	g = i
}`
	fused := bytecode.MustCompile(src, "midseq", bytecode.Options{})
	plain := bytecode.MustCompile(src, "midseq", bytecode.Options{NoFuse: true})
	for budget := int64(1); budget < 30; budget++ {
		// Run unfused for `budget` steps, landing anywhere — including
		// mid-sequence.
		st := vm.NewState(plain, nil, nil)
		vm.NewMachine(st, vm.NewRoundRobin()).Run(budget)
		// Continue under the fused program: the state's PCs index the
		// same code, so swapping the program pointer is the same trick
		// checkpoint restoration uses.
		st.Prog = fused
		res := vm.NewMachine(st, vm.NewRoundRobin()).Run(-1)
		if res.Kind != vm.StopFinished {
			t.Fatalf("budget %d: resume: %v", budget, res.Kind)
		}
		// Reference: straight unfused run.
		ref := vm.NewState(plain, nil, nil)
		vm.NewMachine(ref, vm.NewRoundRobin()).Run(-1)
		if st.MemoryFingerprint() != ref.MemoryFingerprint() {
			t.Fatalf("budget %d: mid-sequence resume diverged", budget)
		}
	}
}

// TestInternCounters sanity-checks the fast-path tallies surfaced
// through vm.Counters.
func TestInternCounters(t *testing.T) {
	m := tightLoopMachine(t, false)
	var ctr vm.Counters
	m.Counters = &ctr
	m.Run(1_000)
	if ctr.FusedOps.Load() == 0 {
		t.Error("no fused superinstructions counted in an arithmetic loop")
	}
	if ctr.InternedConsts.Load() == 0 {
		t.Error("no interned constants counted in an arithmetic loop")
	}
}
