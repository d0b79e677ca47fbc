package vm

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

func TestWaitWithoutMutexErrors(t *testing.T) {
	_, res := run(t, `
mutex m
cond c
fn main() { wait(c, m) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrUnlockNotOwned {
		t.Fatalf("wait without holding the mutex must error, got %v/%v", res.Kind, res.Err)
	}
}

func TestSignalWithoutWaitersIsNoop(t *testing.T) {
	st, res := run(t, `
cond c
fn main() {
	signal(c)
	broadcast(c)
	print("ok")
}`, nil, nil)
	wantFinished(t, res)
	if outputText(st) != "ok\n" {
		t.Fatalf("got %q", outputText(st))
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	st, res := run(t, `
var round1 = 0
var round2 = 0
barrier b(2)
fn worker() {
	round1 = round1 + 1
	barrier_wait(b)
	barrier_wait(b)
	round2 = round2 + 1
}
fn main() {
	let w = spawn worker()
	barrier_wait(b)
	barrier_wait(b)
	join(w)
	print(round1, " ", round2)
}`, nil, nil)
	wantFinished(t, res)
	if outputText(st) != "1 1\n" {
		t.Fatalf("got %q", outputText(st))
	}
}

func TestSuspendMakesStateStuck(t *testing.T) {
	p := compileSrc(t, `
fn side() { yield() }
fn main() {
	let s = spawn side()
	join(s)
}`)
	st := NewState(p, nil, nil)
	st.Suspend(0) // suspend main before anything runs
	m := NewMachine(st, NewRoundRobin())
	res := m.Run(10_000)
	if res.Kind != StopStuck {
		t.Fatalf("want stuck (only suspended thread runnable), got %v", res.Kind)
	}
	st.Resume(0)
	res = m.Run(-1)
	wantFinished(t, res)
}

func TestStickyControllerPrefersCurrent(t *testing.T) {
	src := `
var order[4]
var n = 0
fn w(tag) {
	order[n] = tag
	n = n + 1
	yield()
	order[n] = tag
	n = n + 1
}
fn main() {
	let a = spawn w(1)
	let b = spawn w(2)
	join(a)
	join(b)
	print(order[0], order[1], order[2], order[3])
}`
	p := compileSrc(t, src)
	st := NewState(p, nil, nil)
	m := NewMachine(st, Sticky{})
	res := m.Run(-1)
	wantFinished(t, res)
	// Sticky keeps a thread running across its yield: each worker's two
	// writes are adjacent.
	if got := outputText(st); got != "1122\n" && got != "2211\n" {
		t.Fatalf("sticky scheduling interleaved: %q", got)
	}
}

func TestJoinInvalidTarget(t *testing.T) {
	_, res := run(t, `fn main() { join(42) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrJoinBad {
		t.Fatalf("got %v/%v", res.Kind, res.Err)
	}
	_, res = run(t, `fn main() { join(0) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrJoinBad {
		t.Fatalf("self-join: got %v/%v", res.Kind, res.Err)
	}
}

func TestAllocBounds(t *testing.T) {
	_, res := run(t, `fn main() { let p = alloc(0) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrAllocSize {
		t.Fatalf("alloc(0): got %v/%v", res.Kind, res.Err)
	}
	_, res = run(t, `fn main() { let p = alloc(0 - 5) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrAllocSize {
		t.Fatalf("alloc(-5): got %v/%v", res.Kind, res.Err)
	}
	_, res = run(t, `fn main() { let p = alloc(9999999) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrAllocSize {
		t.Fatalf("huge alloc: got %v/%v", res.Kind, res.Err)
	}
}

func TestFreeBadRef(t *testing.T) {
	_, res := run(t, `fn main() { free(12345) }`, nil, nil)
	if res.Kind != StopError || res.Err.Kind != ErrBadRef {
		t.Fatalf("got %v/%v", res.Kind, res.Err)
	}
}

func TestSymbolicArgMemoized(t *testing.T) {
	p := compileSrc(t, `
fn main() {
	let a = arg(0)
	let b = arg(0)
	print(a - b)
}`)
	st := NewState(p, []int64{9}, nil)
	st.MarkSymArg(0)
	m := NewMachine(st, NewRoundRobin())
	res := m.Run(-1)
	wantFinished(t, res)
	// Both reads must yield the same symbol, so a-b folds to 0.
	if got := outputText(st); got != "0\n" {
		t.Fatalf("arg symbol not memoized: %q", got)
	}
}

func TestFormatLocNames(t *testing.T) {
	p := compileSrc(t, `
var counter = 0
var buf[4]
fn main() { counter = 1; buf[2] = 3 }`)
	if s := FormatLoc(p, Loc{Space: SpaceGlobal, Obj: 0}); s != "counter" {
		t.Fatalf("got %q", s)
	}
	if s := FormatLoc(p, Loc{Space: SpaceGlobal, Obj: 1, Elem: 2}); s != "buf[2]" {
		t.Fatalf("got %q", s)
	}
	if s := FormatLoc(p, Loc{Space: SpaceHeap, Obj: 7, Elem: 1}); !strings.Contains(s, "heap") {
		t.Fatalf("got %q", s)
	}
}

func TestOutputRendering(t *testing.T) {
	o := Output{Parts: []OutPart{{Lit: "x="}, {E: expr.NewConst(5)}, {Lit: "!"}}}
	if o.String() != "x=5!" {
		t.Fatalf("got %q", o.String())
	}
}

func TestStopKindAndStatusStrings(t *testing.T) {
	if StopFinished.String() != "finished" || StopDeadlock.String() != "deadlock" ||
		StopStuck.String() != "stuck" || StopBudget.String() != "budget" {
		t.Fatal("stop kind names wrong")
	}
	if ThRunnable.String() != "runnable" || ThExited.String() != "exited" {
		t.Fatal("thread status names wrong")
	}
	if ErrDivZero.String() != "division by zero" {
		t.Fatal("err kind names wrong")
	}
}

func TestRuntimeErrorMessage(t *testing.T) {
	e := &RuntimeError{Kind: ErrOutOfBounds, TID: 2, PC: bytecode.PCRef{Fn: 1, PC: 3, Line: 9}, Msg: "index 7"}
	s := e.Error()
	for _, want := range []string{"thread 2", "out-of-bounds", "index 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("error %q missing %q", s, want)
		}
	}
}

func TestSharedVsFullFingerprint(t *testing.T) {
	p := compileSrc(t, `
var g = 0
fn main() {
	let local = 5
	g = 1
	yield()
	g = 1
}`)
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	// Stop just past the yield, at the second store (instruction 6).
	m.Stop = Stop{On: AtAccess, TID: 0, Instrs: 6}
	if res := m.Run(-1); res.Kind != StopBreak {
		t.Fatalf("want break, got %v", res.Kind)
	}
	before := st.Clone()
	fullBefore := st.MemoryFingerprint()
	m.Stop = Stop{}
	m.Run(-1)
	// The second g=1 is redundant: shared memory unchanged, but the
	// thread advanced, so the full fingerprint must differ.
	if !SameSharedMemory(st, before) {
		t.Fatal("shared memory should be unchanged by a redundant write")
	}
	if st.MemoryFingerprint() == fullBefore {
		t.Fatal("full fingerprint should reflect thread progress")
	}
}

func TestConditionVariableFIFO(t *testing.T) {
	st, res := run(t, `
var served = 0
var firstServed = 0
mutex m
cond c
fn waiter(tag) {
	lock(m)
	wait(c, m)
	served = served + 1
	if served == 1 { firstServed = tag }
	unlock(m)
}
fn main() {
	let a = spawn waiter(1)
	yield()
	yield()
	let b = spawn waiter(2)
	yield()
	yield()
	signal(c)
	signal(c)
	join(a)
	join(b)
	print(firstServed)
}`, nil, nil)
	wantFinished(t, res)
	// waiter 1 blocked first, so FIFO signal wakes it first.
	if got := outputText(st); got != "1\n" {
		t.Fatalf("cond waiters not FIFO: %q", got)
	}
}

func TestCanBeWrittenByOther(t *testing.T) {
	p := compileSrc(t, `
var shared = 0
var private = 0
fn writer() { shared = 1 }
fn main() {
	let w = spawn writer()
	let x = private
	join(w)
}`)
	sharedID := int64(p.GlobalID("shared"))
	privID := int64(p.GlobalID("private"))
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	// Stop at main's read of `private`, while the writer is still alive.
	m.Stop = Stop{On: AtObject, TID: 0, Space: SpaceGlobal, Obj: privID}
	if res := m.Run(-1); res.Kind != StopBreak {
		t.Fatalf("want break, got %v", res.Kind)
	}
	if !st.CanBeWrittenByOther(Loc{Space: SpaceGlobal, Obj: sharedID}, 0) {
		t.Fatal("writer can still write shared")
	}
	if st.CanBeWrittenByOther(Loc{Space: SpaceGlobal, Obj: privID}, 0) {
		t.Fatal("nobody else writes private")
	}
	if !st.CanBeWrittenByOther(Loc{Space: SpaceHeap, Obj: 1}, 0) {
		t.Fatal("heap locations are conservatively writable")
	}
}

func TestPCRefOfExitedThread(t *testing.T) {
	p := compileSrc(t, `
fn w() {}
fn main() { let t = spawn w(); join(t) }`)
	st := NewState(p, nil, nil)
	vmres := NewMachine(st, NewRoundRobin()).Run(-1)
	wantFinished(t, vmres)
	ref := st.Threads[1].PCRef(p)
	if ref.Fn != -1 {
		t.Fatalf("exited thread PCRef should be sentinel, got %+v", ref)
	}
}

func TestDivModBySymbolicNonZero(t *testing.T) {
	p := compileSrc(t, `
fn main() {
	let v = input()
	print(100 / v, " ", 100 % v)
}`)
	st := NewState(p, nil, []int64{7})
	st.In.NSymbolic = 1
	res := NewMachine(st, NewRoundRobin()).Run(-1)
	wantFinished(t, res)
	// The concolic hint (7) is non-zero, so the division proceeds with a
	// recorded constraint v != 0.
	found := false
	for _, c := range st.PathCond {
		if strings.Contains(c.String(), "!= 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing divisor constraint in %v", st.PathCond)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	st, res := run(t, `
fn main() {
	let s = 0
	for i = 0, 1000 { s += i }
	print(s)
}`, nil, nil)
	wantFinished(t, res)
	if outputText(st) != "499500\n" {
		t.Fatalf("got %q", outputText(st))
	}
}
