package trace

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

const traceProg = `
var total = 0
mutex m
fn w(n) {
	for i = 0, n {
		lock(m)
		total += 1
		unlock(m)
	}
	print("done ", n)
}
fn main() {
	let a = spawn w(arg(0))
	let b = spawn w(4)
	join(a)
	join(b)
	print(total)
}`

func record(t *testing.T, args []int64) (*Trace, *vm.State) {
	t.Helper()
	p := bytecode.MustCompile(traceProg, "tr", bytecode.Options{})
	st := vm.NewState(p, args, nil)
	tr, res := Record(st, vm.NewRoundRobin(), 1_000_000)
	if res.Kind != vm.StopFinished {
		t.Fatalf("record run: %v", res.Kind)
	}
	return tr, st
}

func TestRecordReplayExact(t *testing.T) {
	tr, st1 := record(t, []int64{3})

	p := bytecode.MustCompile(traceProg, "tr", bytecode.Options{})
	st2 := vm.NewState(p, tr.Args, tr.Inputs)
	rep := NewReplayer(tr, vm.NewRoundRobin())
	m := vm.NewMachine(st2, rep)
	res := m.Run(1_000_000)
	if res.Kind != vm.StopFinished {
		t.Fatalf("replay run: %v", res.Kind)
	}
	if rep.Diverged {
		t.Fatalf("replay of identical execution diverged at %d", rep.DivergedAt)
	}
	if st1.RenderOutputs() != st2.RenderOutputs() {
		t.Fatalf("replay output mismatch:\n%q\n%q", st1.RenderOutputs(), st2.RenderOutputs())
	}
	if st1.MemoryFingerprint() != st2.MemoryFingerprint() {
		t.Fatal("replay memory mismatch")
	}
	if st1.Steps != st2.Steps {
		t.Fatalf("replay step mismatch: %d vs %d", st1.Steps, st2.Steps)
	}
}

func TestReplayUnderRandomRecording(t *testing.T) {
	p := bytecode.MustCompile(traceProg, "tr", bytecode.Options{})
	for seed := uint64(1); seed <= 4; seed++ {
		st := vm.NewState(p, []int64{5}, nil)
		tr, res := Record(st, vm.NewRandom(seed), 1_000_000)
		if res.Kind != vm.StopFinished {
			t.Fatalf("seed %d: %v", seed, res.Kind)
		}
		st2 := vm.NewState(p, tr.Args, tr.Inputs)
		rep := NewReplayer(tr, vm.NewRoundRobin())
		res = vm.NewMachine(st2, rep).Run(1_000_000)
		if res.Kind != vm.StopFinished || rep.Diverged {
			t.Fatalf("seed %d: replay failed (%v, diverged=%v)", seed, res.Kind, rep.Diverged)
		}
		if st.RenderOutputs() != st2.RenderOutputs() {
			t.Fatalf("seed %d: outputs differ", seed)
		}
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	tr, _ := record(t, []int64{6})
	// Replay with a different argument: thread a exits earlier, so some
	// recorded decision will pick a no-longer-runnable thread.
	p := bytecode.MustCompile(traceProg, "tr", bytecode.Options{})
	st := vm.NewState(p, []int64{1}, nil)
	rep := NewReplayer(tr, vm.NewRoundRobin())
	res := vm.NewMachine(st, rep).Run(1_000_000)
	if res.Kind != vm.StopFinished {
		t.Fatalf("run: %v", res.Kind)
	}
	if !rep.Diverged {
		t.Fatal("expected divergence with different input")
	}
	if rep.DivergedAt < 0 || rep.DivergedAt >= len(tr.Decisions) {
		t.Fatalf("bad divergence index %d", rep.DivergedAt)
	}
}

func TestReplayExhaustionFallsBack(t *testing.T) {
	tr, _ := record(t, []int64{2})
	// Truncate the trace: the tail of the execution runs on the fallback.
	tr.Decisions = tr.Decisions[:len(tr.Decisions)/2]
	p := bytecode.MustCompile(traceProg, "tr", bytecode.Options{})
	st := vm.NewState(p, tr.Args, tr.Inputs)
	rep := NewReplayer(tr, vm.NewRoundRobin())
	res := vm.NewMachine(st, rep).Run(1_000_000)
	if res.Kind != vm.StopFinished {
		t.Fatalf("run: %v", res.Kind)
	}
	if !rep.Exhausted {
		t.Fatal("expected trace exhaustion")
	}
	if rep.Diverged {
		t.Fatal("exhaustion is not divergence")
	}
}

func TestDecisionMetadata(t *testing.T) {
	tr, _ := record(t, []int64{2})
	if len(tr.Decisions) == 0 {
		t.Fatal("no decisions recorded")
	}
	for _, d := range tr.Decisions {
		if d.TID < 0 || d.Instr < 0 || d.Global < 0 {
			t.Fatalf("bad decision %+v", d)
		}
	}
	if tr.String() == "" {
		t.Fatal("trace rendering empty")
	}
}
