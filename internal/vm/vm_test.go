package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := compileErr(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func compileErr(src string) (p *bytecode.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	p = bytecode.MustCompile(src, "test", bytecode.Options{})
	return p, nil
}

func run(t *testing.T, src string, args, inputs []int64) (*State, RunResult) {
	t.Helper()
	p := compileSrc(t, src)
	st := NewState(p, args, inputs)
	m := NewMachine(st, NewRoundRobin())
	res := m.Run(1_000_000)
	return st, res
}

func wantFinished(t *testing.T, res RunResult) {
	t.Helper()
	if res.Kind != StopFinished {
		t.Fatalf("want finished, got %v (err=%v)", res.Kind, res.Err)
	}
}

func outputText(st *State) string { return st.RenderOutputs() }

func TestArithmeticAndPrint(t *testing.T) {
	st, res := run(t, `
fn main() {
	let x = 6 * 7
	print("x=", x)
	print("mod=", 17 % 5, " div=", 17 / 5)
}`, nil, nil)
	wantFinished(t, res)
	got := outputText(st)
	want := "x=42\nmod=2 div=3\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	st, res := run(t, `
var counter = 10
var buf[4]
fn main() {
	counter += 5
	buf[0] = 1
	buf[3] = counter
	print(buf[0] + buf[3])
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "16\n" {
		t.Fatalf("got %q", got)
	}
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	st, res := run(t, `
fn fact(n) {
	if n <= 1 { return 1 }
	return n * fact(n - 1)
}
fn main() {
	print(fact(6))
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "720\n" {
		t.Fatalf("got %q", got)
	}
}

func TestLoopsBreakContinue(t *testing.T) {
	st, res := run(t, `
fn main() {
	let sum = 0
	for i = 0, 10 {
		if i == 3 { continue }
		if i == 7 { break }
		sum += i
	}
	let j = 0
	while true {
		j += 1
		if j >= 4 { break }
	}
	print(sum, " ", j)
}`, nil, nil)
	wantFinished(t, res)
	// 0+1+2+4+5+6 = 18
	if got := outputText(st); got != "18 4\n" {
		t.Fatalf("got %q", got)
	}
}

func TestShortCircuit(t *testing.T) {
	st, res := run(t, `
var touched = 0
fn touch() { touched = 1; return 1 }
fn main() {
	let a = 0 && touch()
	let b = 1 || touch()
	print(a, " ", b, " ", touched)
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "0 1 0\n" {
		t.Fatalf("short-circuit broken: %q", got)
	}
}

func TestSpawnJoinMutex(t *testing.T) {
	st, res := run(t, `
var total = 0
mutex m
fn worker(n) {
	for i = 0, n {
		lock(m)
		total += 1
		unlock(m)
	}
}
fn main() {
	let t1 = spawn worker(50)
	let t2 = spawn worker(50)
	join(t1)
	join(t2)
	print("total=", total)
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "total=100\n" {
		t.Fatalf("got %q", got)
	}
}

func TestCondVarProducerConsumer(t *testing.T) {
	st, res := run(t, `
var ready = 0
var item = 0
mutex m
cond c
fn producer() {
	lock(m)
	item = 99
	ready = 1
	signal(c)
	unlock(m)
}
fn main() {
	let p = spawn producer()
	lock(m)
	while ready == 0 {
		wait(c, m)
	}
	print("got=", item)
	unlock(m)
	join(p)
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "got=99\n" {
		t.Fatalf("got %q", got)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	st, res := run(t, `
var go_flag = 0
var done = 0
mutex m
cond c
fn waiter() {
	lock(m)
	while go_flag == 0 { wait(c, m) }
	done += 1
	unlock(m)
}
fn main() {
	let a = spawn waiter()
	let b = spawn waiter()
	yield()
	yield()
	lock(m)
	go_flag = 1
	broadcast(c)
	unlock(m)
	join(a)
	join(b)
	print(done)
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "2\n" {
		t.Fatalf("got %q", got)
	}
}

func TestBarrier(t *testing.T) {
	st, res := run(t, `
var phase[3]
barrier b(3)
fn worker(i) {
	phase[i] = 1
	barrier_wait(b)
	// all must have set phase before any proceeds
	assert(phase[0] + phase[1] + phase[2] == 3)
}
fn main() {
	let t1 = spawn worker(0)
	let t2 = spawn worker(1)
	phase[2] = 1
	barrier_wait(b)
	join(t1)
	join(t2)
	print("ok")
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "ok\n" {
		t.Fatalf("got %q", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, res := run(t, `
mutex a
mutex b
fn t2() {
	lock(b)
	yield()
	lock(a)
	unlock(a)
	unlock(b)
}
fn main() {
	let t = spawn t2()
	lock(a)
	yield()
	lock(b)
	unlock(b)
	unlock(a)
	join(t)
}`, nil, nil)
	if res.Kind != StopDeadlock {
		t.Fatalf("want deadlock, got %v", res.Kind)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind ErrKind
	}{
		{"divzero", `fn main() { let z = 0; print(1 / z) }`, ErrDivZero},
		{"oob", `var a[4]
fn main() { let i = 9; a[i] = 1 }`, ErrOutOfBounds},
		{"doublefree", `fn main() { let p = alloc(4); free(p); free(p) }`, ErrDoubleFree},
		{"uaf", `fn main() { let p = alloc(4); free(p); p[0] = 1 }`, ErrUseAfterFree},
		{"assert", `fn main() { assert(1 == 2) }`, ErrAssert},
		{"unlock-not-owned", `mutex m
fn main() { unlock(m) }`, ErrUnlockNotOwned},
		{"relock", `mutex m
fn main() { lock(m); lock(m) }`, ErrRelock},
		{"badarg", `fn main() { print(arg(5)) }`, ErrBadArg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, res := run(t, tc.src, nil, nil)
			if res.Kind != StopError || res.Err == nil || res.Err.Kind != tc.kind {
				t.Fatalf("want %v, got %v err=%v", tc.kind, res.Kind, res.Err)
			}
		})
	}
}

func TestHeapReadWrite(t *testing.T) {
	st, res := run(t, `
fn main() {
	let p = alloc(8)
	for i = 0, 8 { p[i] = i * i }
	let s = 0
	for i = 0, 8 { s += p[i] }
	free(p)
	print(s)
}`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "140\n" {
		t.Fatalf("got %q", got)
	}
}

func TestArgsAndInputs(t *testing.T) {
	st, res := run(t, `
fn main() {
	print("a0=", arg(0), " a1=", arg(1), " in=", input(), ",", input())
}`, []int64{7, 8}, []int64{100, 200})
	wantFinished(t, res)
	if got := outputText(st); got != "a0=7 a1=8 in=100,200\n" {
		t.Fatalf("got %q", got)
	}
}

func TestInputBeyondLogIsZero(t *testing.T) {
	st, res := run(t, `fn main() { print(input()) }`, nil, nil)
	wantFinished(t, res)
	if got := outputText(st); got != "0\n" {
		t.Fatalf("got %q", got)
	}
}

func TestMainExitKillsDaemons(t *testing.T) {
	st, res := run(t, `
var spin = 0
fn daemon() {
	while true { yield() }
}
fn main() {
	spawn daemon()
	print("bye")
}`, nil, nil)
	wantFinished(t, res)
	if !st.Halted {
		t.Fatal("state should be halted after main returns")
	}
	if got := outputText(st); got != "bye\n" {
		t.Fatalf("got %q", got)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
var x = 0
mutex m
fn w(n) {
	for i = 0, n { lock(m); x += i; unlock(m) }
	print("w done ", n)
}
fn main() {
	let a = spawn w(5)
	let b = spawn w(7)
	join(a)
	join(b)
	print(x)
}`
	st1, r1 := run(t, src, nil, nil)
	st2, r2 := run(t, src, nil, nil)
	wantFinished(t, r1)
	wantFinished(t, r2)
	if outputText(st1) != outputText(st2) {
		t.Fatalf("nondeterministic outputs:\n%q\n%q", outputText(st1), outputText(st2))
	}
	if st1.MemoryFingerprint() != st2.MemoryFingerprint() {
		t.Fatal("nondeterministic final memory")
	}
	if st1.Steps != st2.Steps {
		t.Fatalf("nondeterministic step counts: %d vs %d", st1.Steps, st2.Steps)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := compileSrc(t, `
var x = 0
fn main() {
	x = 1
	yield()
	x = 2
	print(x)
}`)
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	// Stop just past the yield, at the store of x = 2 (instruction 4).
	m.Stop = Stop{On: AtAccess, TID: 0, Instrs: 4}
	res := m.Run(-1)
	if res.Kind != StopBreak {
		t.Fatalf("want break, got %v", res.Kind)
	}

	snap := st.Clone()
	m.Stop = Stop{}
	res = m.Run(-1)
	wantFinished(t, res)
	if v, _ := expr.ConstVal(st.Globals[0][0]); v != 2 {
		t.Fatalf("original should have x=2, got %v", st.Globals[0][0])
	}
	// The clone is still parked at the yield with x=1.
	if v, _ := expr.ConstVal(snap.Globals[0][0]); v != 1 {
		t.Fatalf("clone should have x=1, got %v", snap.Globals[0][0])
	}
	m2 := NewMachine(snap, NewRoundRobin())
	res = m2.Run(-1)
	wantFinished(t, res)
	if outputText(snap) != "2\n" {
		t.Fatalf("clone run output %q", outputText(snap))
	}
}

// Several heap blocks, then a clone: allocations, writes and frees on
// either side, run in either order, never show through on the other.
func TestHeapCloneIsolation(t *testing.T) {
	p := compileSrc(t, `
var ready = 0
fn main() {
	let a = alloc(2)
	let b = alloc(3)
	let c = alloc(1)
	ready = 1
	let v = input()
	let d = alloc(2)
	d[1] = v
	a[0] = v
	b[2] = v + 1
	free(c)
	free(d)
}`)
	// Each side must end exactly as an uncloned run on its input does.
	alone := func(in int64) *State {
		s := NewState(p, nil, []int64{in})
		wantFinished(t, NewMachine(s, NewRoundRobin()).Run(-1))
		return s
	}
	for _, srcFirst := range []bool{true, false} {
		st := NewState(p, nil, []int64{5})
		m := NewMachine(st, NewRoundRobin())
		m.Stop = Stop{On: AtObject, TID: 0, Space: SpaceGlobal, Obj: int64(p.GlobalID("ready"))}
		if res := m.Run(-1); res.Kind != StopBreak || st.HeapLen() != 3 {
			t.Fatalf("want a break after 3 allocations, got %v with %d", res.Kind, st.HeapLen())
		}
		cl := st.Clone()
		cl.In.Values = []int64{9}
		sides := []*State{st, cl}
		if !srcFirst {
			sides[0], sides[1] = cl, st
		}
		for i, s := range sides {
			other := sides[1-i]
			before := other.MemoryFingerprint()
			wantFinished(t, NewMachine(s, NewRoundRobin()).Run(-1))
			if after := other.MemoryFingerprint(); after != before {
				t.Fatalf("source first %v: side %d's run moved the other side's memory\nbefore %s\nafter  %s", srcFirst, i, before, after)
			}
		}
		for _, side := range []struct {
			s  *State
			in int64
		}{{st, 5}, {cl, 9}} {
			if want := alone(side.in); !SameSharedMemory(side.s, want) {
				t.Fatalf("source first %v: input %d ends with %s, alone with %s", srcFirst, side.in, side.s.MemoryFingerprint(), want.MemoryFingerprint())
			}
		}
	}
}

func TestBreakpointAtInstrCount(t *testing.T) {
	p := compileSrc(t, `
var g = 0
fn main() {
	g = 1
	g = 2
	g = 3
	print(g)
}`)
	// Instruction 2 pushes the 2, so a stop there never matches.
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	m.Stop = Stop{On: AtAccess, TID: 0, Instrs: 2}
	wantFinished(t, m.Run(-1))

	// Instruction 3 stores it: the stop parks before g = 2.
	st = NewState(p, nil, nil)
	m = NewMachine(st, NewRoundRobin())
	m.Stop = Stop{On: AtAccess, TID: 0, Instrs: 3}
	res := m.Run(-1)
	if res.Kind != StopBreak {
		t.Fatalf("want break, got %v", res.Kind)
	}
	if st.Threads[0].Instrs != 3 {
		t.Fatalf("stopped at %d, want 3", st.Threads[0].Instrs)
	}
	if v, _ := expr.ConstVal(st.Globals[0][0]); v != 1 {
		t.Fatalf("stopped with g=%v, want 1", st.Globals[0][0])
	}
	m.Stop = Stop{}
	res = m.Run(-1)
	wantFinished(t, res)
	if outputText(st) != "3\n" {
		t.Fatalf("got %q", outputText(st))
	}
}

// TestStopGateCoversMatch pins the run loop's stop gate to Stop.match:
// at every opcode, under every condition, an instruction before which
// match holds must pass the gate, or Run would execute past its stop.
func TestStopGateCoversMatch(t *testing.T) {
	st := NewState(compileSrc(t, "fn main() { }"), nil, nil)
	th := st.Threads[0]
	th.Instrs, st.Steps = 7, 40
	stops := []Stop{
		{On: AtAccess, TID: 0, Instrs: 7},
		{On: AtObject, TID: -1, Space: SpaceGlobal, Obj: 3},
		{On: AtObject, TID: 0, Space: SpaceHeap},
		{On: AtFork, TID: -1},
		{On: AtFork | AtObject, TID: -1, Space: SpaceGlobal, Obj: 3},
		{On: AtSteps, TID: -1, Steps: 40},
	}
	matched := make([]int, len(stops))
	for _, top := range []expr.Expr{st.NewSym("in0", 0), expr.NewConst(1)} {
		fr := &Frame{Stack: []expr.Expr{top}}
		for op := bytecode.NOP; op <= bytecode.ASSERT; op++ {
			in := bytecode.Instr{Op: op, A: 3}
			for i := range stops {
				s := &stops[i]
				if !s.match(st, th, fr, in) {
					continue
				}
				matched[i]++
				if !s.gate(st, op) {
					t.Errorf("%v with stack top %v: match holds for %+v but the gate skips it", op, top, *s)
				}
			}
		}
	}
	for i, n := range matched {
		if n == 0 {
			t.Errorf("%+v never matched: the check is vacuous", stops[i])
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	_, res := run(t, `
fn main() {
	while true { }
}`, nil, nil)
	if res.Kind != StopBudget {
		t.Fatalf("want budget, got %v", res.Kind)
	}
}

func TestSpinDiagnosisAdHoc(t *testing.T) {
	p := compileSrc(t, `
var flag = 0
fn setter() {
	sleep(10)
	flag = 1
}
fn main() {
	let s = spawn setter()
	while flag == 0 { }
	join(s)
}`)
	st := NewState(p, nil, nil)
	// Suspend the setter so main spins forever; mirrors enforcement.
	m := NewMachine(st, NewRoundRobin())
	m.SpinTrack = true
	st.Suspend(1)
	// Give the spawn a chance to happen first.
	res := m.Run(100_000)
	if res.Kind != StopBudget {
		t.Fatalf("want budget, got %v", res.Kind)
	}
	d := m.DiagnoseSpin(0)
	if !d.Looping {
		t.Fatal("expected looping diagnosis")
	}
	if !d.WritableByOther {
		t.Fatal("flag is writable by the setter: this is ad-hoc sync")
	}
}

func TestSpinDiagnosisInfiniteLoop(t *testing.T) {
	p := compileSrc(t, `
var unrelated = 0
fn other() { unrelated = 1 }
fn main() {
	let o = spawn other()
	let x = 0
	while x == 0 { }
	join(o)
}`)
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	m.SpinTrack = true
	res := m.Run(100_000)
	if res.Kind != StopBudget {
		t.Fatalf("want budget, got %v", res.Kind)
	}
	d := m.DiagnoseSpin(0)
	if !d.Looping {
		t.Fatal("expected looping diagnosis")
	}
	if d.WritableByOther {
		t.Fatal("loop reads no shared state another thread writes: infinite loop")
	}
}

func TestSymbolicInputConcolic(t *testing.T) {
	p := compileSrc(t, `
fn main() {
	let v = input()
	if v > 10 {
		print("big")
	} else {
		print("small")
	}
	print(v + 1)
}`)
	st := NewState(p, nil, []int64{42})
	st.In.NSymbolic = 1
	m := NewMachine(st, NewRoundRobin())
	res := m.Run(-1)
	wantFinished(t, res)
	// Concolic: follows the hint (42 > 10 → "big"), collects constraint.
	if got := outputText(st); !strings.HasPrefix(got, "big\n") {
		t.Fatalf("got %q", got)
	}
	if len(st.PathCond) == 0 {
		t.Fatal("expected a path constraint from the symbolic branch")
	}
	// The final print is symbolic: in0 + 1.
	last := st.Outputs[len(st.Outputs)-1]
	var e expr.Expr
	for _, part := range last.Parts {
		if part.E != nil {
			e = part.E
		}
	}
	if e == nil || expr.IsConcrete(e) {
		t.Fatalf("expected symbolic output, got %v", e)
	}
}

func TestConcretize(t *testing.T) {
	p := compileSrc(t, `
var g = 0
fn main() {
	g = input()
	yield()
	print(g, " ", input())
}`)
	st := NewState(p, nil, []int64{5, 6})
	st.In.NSymbolic = 2
	m := NewMachine(st, NewRoundRobin())
	// Stop just past the yield, at the read of g (instruction 3).
	m.Stop = Stop{On: AtAccess, TID: 0, Instrs: 3}
	if res := m.Run(-1); res.Kind != StopBreak {
		t.Fatalf("want break, got %v", res.Kind)
	}
	if expr.IsConcrete(st.Globals[0][0]) {
		t.Fatal("g should be symbolic before concretization")
	}
	st.Concretize(expr.Assignment{"in0": 77, "in1": 88})
	if v, ok := expr.ConstVal(st.Globals[0][0]); !ok || v != 77 {
		t.Fatalf("g should be 77, got %v", st.Globals[0][0])
	}
	m.Stop = Stop{}
	res := m.Run(-1)
	wantFinished(t, res)
	if got := outputText(st); got != "77 88\n" {
		t.Fatalf("got %q", got)
	}
}

func TestObserverEvents(t *testing.T) {
	p := compileSrc(t, `
var x = 0
mutex m
fn w() { lock(m); x = 1; unlock(m) }
fn main() {
	let t = spawn w()
	lock(m)
	x = 2
	unlock(m)
	join(t)
}`)
	st := NewState(p, nil, nil)
	obs := &recordingObserver{}
	st.Observers = append(st.Observers, obs)
	m := NewMachine(st, NewRoundRobin())
	res := m.Run(-1)
	wantFinished(t, res)
	if obs.accesses == 0 {
		t.Fatal("no accesses observed")
	}
	need := []SyncKind{EvSpawn, EvAcquire, EvRelease, EvExit, EvJoin}
	for _, k := range need {
		if !obs.sawSync[k] {
			t.Fatalf("missing sync event %d", k)
		}
	}
}

type recordingObserver struct {
	accesses int
	sawSync  map[SyncKind]bool
}

func (r *recordingObserver) OnAccess(st *State, tid int, loc Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	r.accesses++
}
func (r *recordingObserver) OnSync(st *State, ev SyncEvent) {
	if r.sawSync == nil {
		r.sawSync = map[SyncKind]bool{}
	}
	r.sawSync[ev.Kind] = true
}
func (r *recordingObserver) CloneObs() Observer {
	n := &recordingObserver{accesses: r.accesses, sawSync: map[SyncKind]bool{}}
	for k, v := range r.sawSync {
		n.sawSync[k] = v
	}
	return n
}

func TestRandomControllerStillCorrect(t *testing.T) {
	src := `
var total = 0
mutex m
fn w(n) {
	for i = 0, n { lock(m); total += 1; unlock(m) }
}
fn main() {
	let a = spawn w(20)
	let b = spawn w(20)
	join(a)
	join(b)
	print(total)
}`
	p := compileSrc(t, src)
	for seed := uint64(1); seed <= 5; seed++ {
		st := NewState(p, nil, nil)
		m := NewMachine(st, NewRandom(seed))
		res := m.Run(1_000_000)
		wantFinished(t, res)
		if got := outputText(st); got != "40\n" {
			t.Fatalf("seed %d: got %q", seed, got)
		}
	}
}

func TestStepAdvancesOneInstruction(t *testing.T) {
	p := compileSrc(t, `fn main() { let a = 1; let b = 2; print(a + b) }`)
	st := NewState(p, nil, nil)
	m := NewMachine(st, NewRoundRobin())
	before := st.Steps
	res := m.Step()
	if res.Kind != StopBreak && res.Kind != StopFinished {
		t.Fatalf("unexpected stop: %v", res.Kind)
	}
	if st.Steps != before+1 {
		t.Fatalf("step executed %d instructions", st.Steps-before)
	}
}

func TestMemoryFingerprintDiffers(t *testing.T) {
	p := compileSrc(t, `var x = 0
fn main() { x = arg(0) }`)
	st1 := NewState(p, []int64{1}, nil)
	NewMachine(st1, NewRoundRobin()).Run(-1)
	st2 := NewState(p, []int64{2}, nil)
	NewMachine(st2, NewRoundRobin()).Run(-1)
	if st1.MemoryFingerprint() == st2.MemoryFingerprint() {
		t.Fatal("fingerprints should differ")
	}
}
