package vm

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

// spinOutcome is everything a spin-tracked run leaves behind that the
// period skip must reproduce exactly.
type spinOutcome struct {
	res      RunResult
	wire     []byte
	diags    []SpinDiagnosis
	spin     string // spinDump: both windows of every thread, exactly
	interned int64
	skipped  int64
	m        *Machine
}

// spinDump renders every thread's spin-tracking data — ticks and both
// windows' visit counters and read sets — canonically. The skip rebuilds
// both windows from real execution, so this must match exactly, not
// just the coarser DiagnoseSpin summary.
func spinDump(m *Machine) string {
	var b strings.Builder
	pcs := func(c *pcCounts) {
		keys := slices.Clone(c.touched)
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%x=%d,", k, c.funcs[k>>32][uint32(k)])
		}
		b.WriteString("; ")
	}
	locs := func(s *locSet) {
		ls := slices.Clone(s.touched)
		slices.SortFunc(ls, func(x, y Loc) int {
			return cmp.Or(cmp.Compare(x.Space, y.Space), cmp.Compare(x.Obj, y.Obj), cmp.Compare(x.Elem, y.Elem))
		})
		for _, l := range ls {
			b.WriteString(l.String() + ",")
		}
		b.WriteString("; ")
	}
	for tid, si := range m.spin {
		if si != nil {
			fmt.Fprintf(&b, "t%d ticks=%d: ", tid, si.ticks)
			pcs(&si.visits)
			pcs(&si.prevVisits)
			locs(&si.reads)
			locs(&si.prevReads)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// spinRun runs p's main under SpinTrack with the period skip on or off.
// setup may suspend threads (ahead of their spawn) or set a breakpoint.
func spinRun(p *bytecode.Program, ctl Controller, budget int64, skip bool, setup func(m *Machine)) spinOutcome {
	saved := periodSkip
	periodSkip = skip
	defer func() { periodSkip = saved }()
	m := NewMachine(NewState(p, nil, nil), ctl)
	m.SpinTrack = true
	m.Counters = &Counters{}
	if setup != nil {
		setup(m)
	}
	o := spinOutcome{res: m.Run(budget), m: m}
	o.wire = wireBytes(m.St, false)
	for tid := range m.St.Threads {
		o.diags = append(o.diags, m.DiagnoseSpin(tid))
	}
	o.spin = spinDump(m)
	o.interned = m.Counters.InternedConsts.Load()
	o.skipped = m.Counters.SkippedSteps.Load()
	return o
}

// spinPair runs src both ways from identical starts and requires
// identical outcomes; it returns the skipping run's.
func spinPair(t *testing.T, src string, budget int64, setup func(m *Machine)) spinOutcome {
	t.Helper()
	p := compileSrc(t, src)
	full := spinRun(p, NewRoundRobin(), budget, false, setup)
	// Configuration comparisons must agree with the codec (the first
	// few hundred: a never-periodic loop compares on every iteration).
	pinned := 0
	probeHook = func(snap, cur *State, same bool) {
		if pinned++; pinned > 256 {
			return
		}
		if codec := string(wireBytes(snap, true)) == string(wireBytes(cur, true)); codec != same {
			t.Errorf("sameConfig %v, EncodeState equality %v (steps %d vs %d)", same, codec, snap.Steps, cur.Steps)
		}
	}
	defer func() { probeHook = nil }()
	fast := spinRun(p, NewRoundRobin(), budget, true, setup)
	if full.skipped != 0 {
		t.Fatalf("skipped %d steps with the period skip off", full.skipped)
	}
	if full.res != fast.res {
		t.Fatalf("result %+v interpreted, %+v with the skip", full.res, fast.res)
	}
	if string(full.wire) != string(fast.wire) {
		t.Fatalf("final states differ (skipped %d steps)", fast.skipped)
	}
	if !reflect.DeepEqual(full.diags, fast.diags) {
		t.Fatalf("spin diagnoses differ\ninterpreted %+v\nskipped     %+v", full.diags, fast.diags)
	}
	if full.spin != fast.spin {
		t.Fatalf("spin windows differ\ninterpreted:\n%s\nskipped:\n%s", full.spin, fast.spin)
	}
	if full.interned != fast.interned {
		t.Fatalf("InternedConsts %d interpreted, %d with the skip", full.interned, fast.interned)
	}
	return fast
}

func suspend(tid int) func(m *Machine) { return func(m *Machine) { m.St.Suspend(tid) } }

// A flag spin whose writer is suspended recurs within a few hundred
// steps: the skip must fast-forward it, and the diagnosis (ad-hoc sync,
// writable by the suspended setter) must come out as interpreted.
func TestPeriodSkipFlagSpin(t *testing.T) {
	o := spinPair(t, `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let s = spawn setter()
	while flag == 0 { }
	join(s)
}`, 300_000, suspend(1))
	if o.res.Kind != StopBudget || o.skipped == 0 {
		t.Fatalf("want a fast-forwarded budget stop, got %+v skipped %d", o.res, o.skipped)
	}
	if d := o.diags[0]; !d.Looping || !d.WritableByOther || len(d.SharedReads) != 1 {
		t.Fatalf("diagnosis %+v, want looping ad-hoc sync on flag", d)
	}
}

// A counter loop exits after several snapshot horizons; no snapshot may
// ever match, and the run must reach its breakpoint unskipped.
func TestPeriodSkipCounterLoopReachesBreak(t *testing.T) {
	o := spinPair(t, `
var done = 0
fn main() {
	let i = 0
	while i < 20000 { i = i + 1 }
	done = 1
}`, 300_000, func(m *Machine) {
		m.Stop = Stop{On: AtObject, TID: -1, Space: SpaceGlobal, Obj: int64(m.St.Prog.GlobalID("done"))}
	})
	if o.res.Kind != StopBreak || o.skipped != 0 {
		t.Fatalf("want an unskipped break, got %+v skipped %d", o.res, o.skipped)
	}
	if o.res.Steps < 4*periodHorizon {
		t.Fatalf("loop ran only %d steps; it must outlast several horizons", o.res.Steps)
	}
}

// A stop that reads a step counter turns the probe off: a spin-tracked
// run to thread 0's shared access at an instruction count far past the
// probe's horizons parks at exactly that access in both arms, unskipped.
// A skip would jump the count past the access.
func TestPeriodSkipStepCountedStop(t *testing.T) {
	const n = 200_002 // the loop's LOADG flag: every 5th instruction from 2
	o := spinPair(t, `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let s = spawn setter()
	while flag == 0 { }
	join(s)
}`, 300_000, func(m *Machine) {
		m.St.Suspend(1)
		m.Stop = Stop{On: AtAccess, TID: 0, Instrs: n}
	})
	if th := o.m.St.Threads[0]; o.res.Kind != StopBreak || o.skipped != 0 || th.Instrs != n {
		t.Fatalf("want an unskipped break at instruction %d, got %+v at %d, skipped %d", n, o.res, th.Instrs, o.skipped)
	}
}

// A period longer than the compare horizon is never found: the run is
// interpreted in full.
func TestPeriodSkipLongPeriodNotFound(t *testing.T) {
	o := spinPair(t, `
fn main() {
	while true {
		let i = 0
		while i < 3000 { i = i + 1 }
	}
}`, 300_000, nil)
	if o.res.Kind != StopBudget || o.skipped != 0 {
		t.Fatalf("want an interpreted budget stop, got %+v skipped %d", o.res, o.skipped)
	}
}

// Budgets ending at every offset within a period: the skipped run must
// stop at exactly the interpreted run's instruction.
func TestPeriodSkipBudgetEndsMidPeriod(t *testing.T) {
	const src = `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let s = spawn setter()
	let x = 0
	while flag == 0 { x = (x + 3) & 7 }
	join(s)
}`
	for budget := int64(100_000); budget < 100_000+40; budget++ {
		if o := spinPair(t, src, budget, suspend(1)); o.skipped == 0 {
			t.Fatalf("budget %d: the skip never engaged", budget)
		}
	}
}

// A thread that repeatedly fails LOCK — blocked attempts tick but do not
// complete — and a holder that keeps releasing and re-taking the mutex.
func TestPeriodSkipFailingLock(t *testing.T) {
	o := spinPair(t, `
var flag = 0
mutex mu
fn setter() { flag = 1 }
fn contender() {
	while flag == 0 {
		lock(mu)
		unlock(mu)
	}
}
fn main() {
	let s = spawn setter()
	let c = spawn contender()
	while flag == 0 {
		lock(mu)
		yield()
		unlock(mu)
	}
	join(c)
}`, 300_000, suspend(1))
	if o.res.Kind != StopBudget || o.skipped == 0 {
		t.Fatalf("want a fast-forwarded budget stop, got %+v skipped %d", o.res, o.skipped)
	}
	if si := o.m.spin[2]; si.ticks <= o.m.St.Threads[2].Instrs {
		t.Fatalf("contender ticked %d times for %d instructions: no LOCK attempt ever failed", si.ticks, o.m.St.Threads[2].Instrs)
	}
}

// Two threads handing the CPU back and forth through yield(): every
// other visit of the same configuration follows a switch, with the
// scheduling-point memo fresh — a different future (the thread runs its
// yield instead of re-picking), so only stale visits may be compared.
// Padding the loops shifts where the snapshots land relative to the
// yields.
func TestPeriodSkipYieldPingPong(t *testing.T) {
	for pad := 0; pad < 8; pad++ {
		body := strings.Repeat("z = z; ", pad) + "yield()"
		o := spinPair(t, `
var flag = 0
fn setter() { flag = 1 }
fn yielder() {
	let z = 0
	while flag == 0 { `+body+` }
}
fn main() {
	let s = spawn setter()
	let a = spawn yielder()
	let z = 0
	while flag == 0 { `+body+` }
	join(a)
}`, 300_000, suspend(1))
		if o.res.Kind != StopBudget || o.skipped == 0 {
			t.Fatalf("pad %d: want a fast-forwarded budget stop, got %+v skipped %d", pad, o.res, o.skipped)
		}
	}
}

// The controller position is part of the configuration: the same State
// under a round-robin rotation that has moved on schedules differently,
// so the probe must not call it a recurrence. (In a run the rotation
// only moves by picking the current thread, which makes this hard to
// reach end to end; the filter is checked directly.)
func TestProbeComparesControllerPosition(t *testing.T) {
	p := compileSrc(t, `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let s = spawn setter()
	while flag == 0 { }
}`)
	for _, moved := range []bool{false, true} {
		rr := NewRoundRobin()
		m := NewMachine(NewState(p, nil, nil), rr)
		m.St.Suspend(1)
		m.SpinTrack = true
		m.Run(1000) // settle into the spin (too short a budget to probe)
		th := m.St.Threads[m.St.Cur]
		m.probe.next, m.probe.horizon = 0, periodFirst
		m.probePeriod(10, 1_000_000, th.Top()) // snapshot
		if moved {
			rr.last += 7
		}
		if skipped, _ := m.probePeriod(20, 1_000_000, th.Top()); (skipped == 0) != moved {
			t.Errorf("rotation moved=%v: skipped %d", moved, skipped)
		}
	}
}

// Three spinners rotating round-robin through usleep (the pbzip2 shape):
// every spinner's windows must be rebuilt, not just the current one's.
func TestPeriodSkipRoundRobinSpinners(t *testing.T) {
	o := spinPair(t, `
var done = 0
fn setter() { done = 1 }
fn spinner() {
	while done == 0 { usleep(50) }
}
fn main() {
	let s = spawn setter()
	let a = spawn spinner()
	let b = spawn spinner()
	let c = spawn spinner()
	join(a)
	join(b)
	join(c)
}`, 300_000, suspend(1))
	if o.res.Kind != StopBudget || o.skipped == 0 {
		t.Fatalf("want a fast-forwarded budget stop, got %+v skipped %d", o.res, o.skipped)
	}
	for tid := 2; tid <= 4; tid++ {
		if d := o.diags[tid]; !d.Looping || !d.WritableByOther {
			t.Fatalf("spinner %d diagnosis %+v, want looping ad-hoc sync", tid, d)
		}
	}
}

// Spinners meeting at a barrier: the last arrival completes the others'
// BARRIER instructions, so State.Steps advances faster than the run's
// own step count and each must scale by its own per-period delta.
func TestPeriodSkipBarrierSpinners(t *testing.T) {
	o := spinPair(t, `
var flag = 0
barrier bar(2)
fn setter() { flag = 1 }
fn worker() {
	while flag == 0 { barrier_wait(bar) }
}
fn main() {
	let s = spawn setter()
	let w = spawn worker()
	while flag == 0 { barrier_wait(bar) }
	join(w)
}`, 300_000, suspend(1))
	if o.res.Kind != StopBudget || o.skipped == 0 {
		t.Fatalf("want a fast-forwarded budget stop, got %+v skipped %d", o.res, o.skipped)
	}
	if o.m.St.Steps <= o.res.Steps {
		t.Fatalf("State.Steps %d, run steps %d: no barrier completed an instruction on another's behalf", o.m.St.Steps, o.res.Steps)
	}
}

// Loops whose registers recur while something else grows every
// iteration — output, allocations, a global or a heap counter — are
// never periodic and never skipped.
func TestPeriodSkipNeverPeriodic(t *testing.T) {
	for name, src := range map[string]string{
		"print": `
fn main() {
	while true { print("tick") }
}`,
		"alloc": `
fn main() {
	while true { let p = alloc(1) }
}`,
		"global-counter": `
var n = 0
fn main() {
	while true { n = n + 1 }
}`,
		"heap-counter": `
fn main() {
	let h = alloc(4)
	while true { h[2] = h[2] + 1 }
}`,
	} {
		if o := spinPair(t, src, 40_000, nil); o.res.Kind != StopBudget || o.skipped != 0 {
			t.Fatalf("%s: want an interpreted budget stop, got %+v skipped %d", name, o.res, o.skipped)
		}
	}
}

// Only comparable controllers are probed: a random schedule's future
// depends on its stream, so the same spin runs in full.
func TestPeriodSkipRandomControllerNotProbed(t *testing.T) {
	p := compileSrc(t, `
var flag = 0
fn setter() { flag = 1 }
fn main() {
	let s = spawn setter()
	while flag == 0 { yield() }
}`)
	if o := spinRun(p, NewRandom(7), 100_000, true, suspend(1)); o.skipped != 0 {
		t.Fatalf("random-schedule run skipped %d steps", o.skipped)
	}
	if o := spinRun(p, Sticky{}, 100_000, true, suspend(1)); o.skipped == 0 {
		t.Fatal("sticky-schedule spin was not fast-forwarded")
	}
}

// TestPeriodConfigFieldsListed guards sameConfig against schema drift:
// every field of the structs a configuration spans must be listed here
// as compared by sameConfig or deliberately excluded, so a new field
// fails this test until the comparator (and this list) account for it.
func TestPeriodConfigFieldsListed(t *testing.T) {
	const (
		compared = "compared"
		counter  = "counter: advanced per period, not compared"
		internal = "bookkeeping outside the wire form"
	)
	listed := map[reflect.Type]map[string]string{
		reflect.TypeOf(State{}): {
			"Prog": compared, "Globals": compared, "heap": compared, "NextRef": compared,
			"Mutexes": compared, "Conds": compared, "Barriers": compared, "Threads": compared,
			"Cur": compared, "Outputs": compared, "In": compared, "Args": compared,
			"SymArgs": compared, "ArgReads": compared, "PathCond": compared, "Hints": compared,
			"Suspended": compared, "Halted": compared, "Failure": compared,
			"Observers": "compared: must be empty on both sides",
			"Steps":     counter,
			"argSyms":   "memo the codec drops; rebuilt identically from Args and Hints",
			"epoch":     internal, "sharedFlag": internal, "gStamp": internal, "syncStamp": internal,
			"thStamp": internal, "heapStamp": internal, "suspStamp": internal, "hintStamp": internal, "argStamp": internal,
			"meter": internal,
		},
		reflect.TypeOf(Thread{}): {
			"ID": compared, "Status": compared, "Frames": compared, "WaitMutex": compared,
			"WaitCond": compared, "WaitJoin": compared, "WaitBarrier": compared, "WaitPhase": compared,
			"Instrs": counter, "stamp": internal,
		},
		reflect.TypeOf(Frame{}): {
			"Fn": compared, "PC": compared, "Locals": compared, "Stack": compared, "stamp": internal,
		},
		reflect.TypeOf(Inputs{}): {
			"Values": compared, "Pos": compared, "NSymbolic": compared,
		},
		reflect.TypeOf(HeapBlock{}): {
			"Cells": compared, "Freed": compared, "stamp": internal,
		},
	}
	for typ, fields := range listed {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; fields[name] == "" {
				t.Errorf("%s.%s is not accounted for by sameConfig: compare it there (or exclude it with a reason) and list it here", typ.Name(), name)
			}
		}
		if len(fields) != typ.NumField() {
			t.Errorf("%s: %d fields listed, struct has %d (stale entry?)", typ.Name(), len(fields), typ.NumField())
		}
	}
}

// locSet must behave exactly like the map-backed set it replaced:
// same members after any sequence of adds and resets, with each member
// in the touched list once.
func TestLocSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s locSet
	ref := map[Loc]bool{}
	for i := 0; i < 20000; i++ {
		if rng.Intn(500) == 0 {
			s.reset()
			clear(ref)
			continue
		}
		l := Loc{Space: Space(rng.Intn(2)), Obj: int64(rng.Intn(40)), Elem: int64(rng.Intn(300))}
		s.add(l)
		ref[l] = true
		if len(s.touched) != len(ref) {
			t.Fatalf("step %d: %d touched, %d members", i, len(s.touched), len(ref))
		}
	}
	got := slices.Clone(s.touched)
	for _, l := range got {
		if !ref[l] {
			t.Fatalf("%v in the set but never added since the last reset", l)
		}
	}
}

// nopObserver is a stand-in observer for the comparator test.
type nopObserver struct{}

func (nopObserver) OnAccess(*State, int, Loc, bool, bytecode.PCRef, int64) {}
func (nopObserver) OnSync(*State, SyncEvent)                               {}
func (o nopObserver) CloneObs() Observer                                   { return o }

// TestSameConfigDetectsEachField perturbs one configuration field at a
// time on a fork of a populated state (through the write barriers, so
// the original stays intact) and requires sameConfig to see every
// perturbation the codec sees — and to ignore the counters the period
// skip advances instead of comparing.
func TestSameConfigDetectsEachField(t *testing.T) {
	p := compileSrc(t, `
var g = 3
var arr[4]
mutex mu
cond cv
barrier bar(3)
fn worker(x) {
	let y = x + 1
	while g == 3 { yield() }
}
fn main() {
	let h = alloc(2)
	h[0] = 7
	print("hi ", g)
	let w = spawn worker(arg(0))
	while g == 3 { yield() }
}`)
	base := NewState(p, []int64{5}, []int64{9, 10})
	base.SetHint("in0", 9)
	if res := NewMachine(base, NewRoundRobin()).Run(500); res.Kind != StopBudget || len(base.Threads) != 2 {
		t.Fatalf("setup run: %+v, %d threads", res, len(base.Threads))
	}
	c7 := expr.NewConst(7000)
	top := func(c *State, tid int) *Frame { return c.wtop(c.wthread(tid)) }
	differs := map[string]func(c *State){
		"Cur":           func(c *State) { c.Cur = 1 - c.Cur },
		"NextRef":       func(c *State) { c.NextRef++ },
		"heap cell":     func(c *State) { c.wblock(1, c.heapBlock(1)).Cells[1] = c7 },
		"heap freed":    func(c *State) { c.wblock(1, c.heapBlock(1)).Freed = true },
		"heap length":   func(c *State) { c.allocBlock([]expr.Expr{c7}) },
		"global scalar": func(c *State) { c.wglobals(); c.Globals[0][0] = c7 },
		"global array":  func(c *State) { c.wglobals(); c.Globals[1][3] = c7 },
		"mutex owner":   func(c *State) { c.wsync(); c.Mutexes[0].Owner = 1 },
		"cond waiters":  func(c *State) { c.wsync(); c.Conds[0].Waiters = append(c.Conds[0].Waiters, 1) },
		"barrier":       func(c *State) { c.wsync(); c.Barriers[0].Arrived = append(c.Barriers[0].Arrived, 1) },
		"thread count": func(c *State) {
			c.wthreads()
			c.Threads = append(c.Threads, &Thread{ID: 2, Status: ThExited, WaitMutex: -1, WaitCond: -1, WaitJoin: -1, WaitBarrier: -1})
		},
		"status":      func(c *State) { c.wthread(1).Status = ThBlockedMutex },
		"WaitMutex":   func(c *State) { c.wthread(1).WaitMutex = 0 },
		"WaitCond":    func(c *State) { c.wthread(1).WaitCond = 0 },
		"WaitJoin":    func(c *State) { c.wthread(1).WaitJoin = 0 },
		"WaitBarrier": func(c *State) { c.wthread(1).WaitBarrier = 0 },
		"WaitPhase":   func(c *State) { c.wthread(1).WaitPhase = 1 },
		"frame count": func(c *State) { t := c.wthread(1); t.Frames = append(t.Frames, c.newFrame(t.Top().Fn, nil)) },
		"frame fn":    func(c *State) { top(c, 1).Fn = p.MainFunc },
		"frame pc":    func(c *State) { top(c, 1).PC++ },
		"frame local": func(c *State) { top(c, 1).Locals[0] = c7 },
		"frame stack": func(c *State) { f := top(c, 1); f.Stack = append(f.Stack, c7) },
		"outputs":     func(c *State) { c.Outputs = append(c.Outputs, Output{TID: 1, Parts: []OutPart{{Lit: "x"}}}) },
		"output value": func(c *State) {
			c.Outputs = []Output{{TID: 0, PC: c.Outputs[0].PC, Parts: []OutPart{{Lit: "hi "}, {E: c7}}}}
		},
		"input values": func(c *State) { c.In.Values = []int64{9, 11} },
		"input pos":    func(c *State) { c.In.Pos++ },
		"input nsym":   func(c *State) { c.In.NSymbolic++ },
		"args":         func(c *State) { c.wargs(); c.Args[0]++ },
		"sym args":     func(c *State) { c.MarkSymArg(0) },
		"arg reads":    func(c *State) { c.ArgReads++ },
		"path cond":    func(c *State) { c.AddConstraint(expr.NewSym("z")) },
		"hint added":   func(c *State) { c.SetHint("z", 1) },
		"hint value":   func(c *State) { c.SetHint("in0", 10) },
		"suspended":    func(c *State) { c.Suspend(1) },
		"halted":       func(c *State) { c.Halted = true },
		"failure":      func(c *State) { c.Failure = &RuntimeError{Kind: ErrAssert, TID: 1} },
		"observers":    func(c *State) { c.Observers = []Observer{nopObserver{}} },
	}
	same := map[string]func(c *State){
		"unchanged": func(c *State) {},
		"Steps":     func(c *State) { c.Steps += 100 },
		"Instrs":    func(c *State) { c.wthread(1).Instrs += 7 },
		"rewritten": func(c *State) { c.wglobals(); top(c, 0).PC += 0 },
	}
	want := wireBytes(base, true)
	for name, perturb := range differs {
		c := base.fork()
		perturb(c)
		if string(wireBytes(c, true)) == string(want) {
			t.Errorf("%s: perturbation invisible to the codec (test bug)", name)
		}
		if sameConfig(base, c) {
			t.Errorf("%s: sameConfig missed a configuration change", name)
		}
		if string(wireBytes(base, true)) != string(want) {
			t.Fatalf("%s: perturbing the fork changed the original", name)
		}
	}
	for name, perturb := range same {
		c := base.fork()
		perturb(c)
		if !sameConfig(base, c) || !sameConfig(c, base) {
			t.Errorf("%s: sameConfig reports a change", name)
		}
	}
}

// TestSameSharedMemory perturbs one part of a populated state at a time
// on a clone (through the write barriers, so the original stays intact).
// The post-race criterion must see every change to a global or heap
// cell, a freed flag or the heap's length, and ignore thread-private
// state and scheduling.
func TestSameSharedMemory(t *testing.T) {
	p := compileSrc(t, `
var g = 3
var arr[4]
fn worker() {
	let y = 1
	while g == 3 { yield() }
}
fn main() {
	let h = alloc(2)
	h[0] = 7
	let w = spawn worker()
	while g == 3 { yield() }
}`)
	base := NewState(p, nil, nil)
	if res := NewMachine(base, NewRoundRobin()).Run(500); res.Kind != StopBudget || len(base.Threads) != 2 || base.HeapLen() != 1 {
		t.Fatalf("setup run: %+v, %d threads, %d heap blocks", res, len(base.Threads), base.HeapLen())
	}
	c7 := expr.NewConst(7000)
	top := func(c *State, tid int) *Frame { return c.wtop(c.wthread(tid)) }
	for _, tc := range []struct {
		name    string
		perturb func(c *State)
		same    bool
	}{
		{"global scalar", func(c *State) { c.wglobals(); c.Globals[0][0] = c7 }, false},
		{"global array element", func(c *State) { c.wglobals(); c.Globals[1][3] = c7 }, false},
		{"heap cell", func(c *State) { c.wblock(1, c.heapBlock(1)).Cells[1] = c7 }, false},
		{"heap freed", func(c *State) { c.wblock(1, c.heapBlock(1)).Freed = true }, false},
		{"extra heap block", func(c *State) { c.NextRef++; c.allocBlock([]expr.Expr{c7}) }, false},
		{"unchanged", func(c *State) {}, true},
		{"privatized, equal cells", func(c *State) { c.wglobals(); c.wblock(1, c.heapBlock(1)) }, true},
		{"local", func(c *State) { top(c, 1).Locals[0] = c7 }, true},
		{"operand stack", func(c *State) { f := top(c, 1); f.Stack = append(f.Stack, c7) }, true},
		{"thread status", func(c *State) { c.wthread(1).Status = ThBlockedMutex }, true},
	} {
		c := base.Clone()
		tc.perturb(c)
		if got, back := SameSharedMemory(base, c), SameSharedMemory(c, base); got != tc.same || back != tc.same {
			t.Errorf("%s: SameSharedMemory = %v (reversed %v), want %v", tc.name, got, back, tc.same)
		}
	}
}
