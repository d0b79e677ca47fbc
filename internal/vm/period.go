package vm

import (
	"sync"
	"unsafe"

	"repro/internal/expr"
)

// Period skip: exact fast-forward of provably periodic spin-tracked runs.
//
// An alternate enforcement that times out (Algorithm 1's case (a)) is
// almost always a spin: a thread re-reading a flag the suspended thread
// would have set, forever. Interpreting the whole budget only to learn
// that is the dominant cost of classification. Under SpinTrack the run
// loop therefore probes for an exact period. Now and then it snapshots
// the machine configuration: every State field the codec serializes
// except the counters Steps and Thread.Instrs, plus the controller's
// position and the scheduling-point memo (skipTID/skipInstr), which the
// probe only ever sees stale (see skipFresh). The interpreter is a
// deterministic function of that configuration, so when it recurs P
// steps after a snapshot, every later stretch of P steps repeats the
// same instructions on the same values. The run then adds all whole
// periods but one arithmetically — Steps, each thread's Instrs, the spin
// ticks and the interned-constant tally advance by k times their
// per-period delta — and interprets the last whole period for real,
// recording every thread's spin events (jump visits and shared reads,
// each stamped with the thread's tick). When that period ends, both spin
// windows DiagnoseSpin can read (the current one and the one before it)
// are rebuilt from the record: every tick they span repeats a recorded
// tick of the same phase. The remainder, under one period, is
// interpreted as usual. The RunResult, the final State, every thread's
// spin data and the Counters equal those of the uninterrupted run.
//
// The probe runs only when the future provably depends on nothing
// outside the configuration: a RoundRobin or Sticky controller, no
// observers, a stop that reads no step counter, and a finite budget
// large enough for both windows to start after a snapshot.
// Random-schedule runs, replays, observer-carrying runs and runs to a
// step-counted stop take the plain path.

const (
	// periodFirst is the run step of the first configuration snapshot
	// and the first compare horizon. Short runs — every enforcement that
	// reaches its stop quickly — never snapshot at all.
	periodFirst = 256
	// periodHorizon caps the compare horizon. Snapshots are retaken at
	// doubling distances up to this one (Brent's cycle search), so any
	// period up to it is found once the run has settled into it.
	periodHorizon = 2 * spinWindow
	// periodMinBudget is the smallest budget worth probing. A skip needs
	// both rebuilt windows to start after the snapshot, so the ticking
	// threads must tick up to two windows past it; a shorter budget
	// rarely leaves room once the run has settled and a period is found.
	periodMinBudget = 4 * spinWindow
)

// spinEvents pools the record buffers of the period after a skip: a
// buffer per Machine would cost allocations on every enforcement.
var spinEvents = sync.Pool{New: func() any { return new([]spinEvent) }}

// periodSkip gates the period probe. It is always on in the program;
// tests turn it off to interpret the same runs end to end.
var periodSkip = true

// Test hooks, nil in the program. probeHook sees every full
// configuration comparison the probe makes (tests pin the comparator to
// the codec with it); spinRunHook sees every spin-tracked Run before its
// tallies are flushed (tests compare skipped and interpreted runs).
var (
	probeHook   func(snap, cur *State, same bool)
	spinRunHook func(m *Machine, budget int64, res RunResult)
)

// periodProbe is the run loop's period detector state (one per
// Machine, reset by each Run).
type periodProbe struct {
	snap *State // configuration snapshot; nil before the first

	next    int64 // run step at which to take the next snapshot
	horizon int64 // distance from that snapshot to the one after

	// Cheap filters captured with the snapshot: current thread, its top
	// frame's pc and the controller position.
	cur, fn, pc, ctl int

	// Counters at the snapshot, the bases of the per-period deltas.
	steps   int64   // run steps
	stSteps int64   // State.Steps (BARRIER also completes others')
	intern  int64   // interned-constant tally
	ticks   []int64 // per-thread spin ticks; per-period deltas after a skip

	// The period interpreted after a skip: its spin events (nil when not
	// recording) and the run step at which it ends.
	rec    *[]spinEvent
	recEnd int64
}

// reset readies the probe for a new Run. Only cancellation can stop a
// run inside its recorded period, leaving the windows unrebuilt, and
// ClassifyCtx discards a cancelled run; its record is released here.
func (p *periodProbe) reset() {
	if p.rec != nil {
		spinEvents.Put(p.rec)
		p.rec = nil
	}
	p.snap, p.next, p.horizon = nil, periodFirst, periodFirst
}

// probeable reports whether this run's future is a function of the
// configuration alone, so a recurrence proves periodicity.
func (m *Machine) probeable(budget int64) bool {
	if !periodSkip || !m.SpinTrack || budget < periodMinBudget || len(m.St.Observers) > 0 ||
		m.Stop.On&(AtAccess|AtSteps) != 0 {
		return false
	}
	_, ok := ctlPos(m.Ctl)
	return ok
}

// ctlPos is the controller's complete scheduling position, for the
// controllers whose position can be compared.
func ctlPos(c Controller) (int, bool) {
	switch c := c.(type) {
	case *RoundRobin:
		return c.last, true
	case Sticky, *Sticky:
		return 0, true
	}
	return 0, false
}

// skipFresh reports whether the scheduling-point memo can still
// suppress a re-pick: the picked thread has not completed an instruction
// since. A stale memo never matches again (Instrs only grows until the
// next pick overwrites it), so all stale memos are the same
// configuration. A fresh one lasts only until the picked thread's next
// completed instruction, so the probe simply snapshots and compares at
// stale points, and the skip never has to move the memo.
func (m *Machine) skipFresh() bool {
	t := m.skipTID
	return t >= 0 && t < len(m.St.Threads) && m.skipInstr == m.St.Threads[t].Instrs
}

// probePeriod runs the detector just before the current thread's next
// instruction (fr is its top frame), where the configuration alone
// determines everything the run does next. It returns the number of run
// steps it fast-forwarded and whether to keep probing.
func (m *Machine) probePeriod(steps, budget int64, fr *Frame) (skipped int64, keep bool) {
	p := &m.probe
	st := m.St
	if p.rec != nil {
		// Recording the period after a skip. It ends at the first visit
		// at its last step: no thread ticks between that visit and the
		// recurrence, because an instruction that ticks without
		// completing blocks its thread, and the pick that follows leaves
		// the memo fresh, which a recurrence never is.
		if steps < p.recEnd {
			return 0, true
		}
		m.rebuildWindows()
		return 0, false
	}
	if steps >= p.next {
		if !m.skipFresh() {
			m.snapshotConfig(steps, fr)
		}
		return 0, true
	}
	if p.snap == nil || steps == p.steps || st.Cur != p.cur || fr.PC != p.pc || fr.Fn != p.fn {
		return 0, true
	}
	if pos, _ := ctlPos(m.Ctl); pos != p.ctl || m.skipFresh() {
		return 0, true
	}
	same := sameConfig(p.snap, st)
	if probeHook != nil {
		probeHook(p.snap, st, same)
	}
	if !same {
		return 0, true
	}
	skipped = m.skipPeriods(steps, budget)
	return skipped, skipped > 0
}

// snapshotConfig records the current configuration and schedules the
// next snapshot (doubling distances, capped). Its fork marks the state
// shared, so every layer the run loop's quantum had privatized is the
// snapshot's too: the loop must privatize the thread and frame again
// before its next write, or it would write into the snapshot.
func (m *Machine) snapshotConfig(steps int64, fr *Frame) {
	p := &m.probe
	st := m.St
	p.snap = st.fork()
	p.cur, p.fn, p.pc = st.Cur, fr.Fn, fr.PC
	p.ctl, _ = ctlPos(m.Ctl)
	p.steps, p.stSteps = steps, st.Steps
	p.intern = m.internHits
	if cap(p.ticks) < len(m.spin) {
		p.ticks = make([]int64, 0, max(len(m.spin), len(m.St.Threads)))
	}
	p.ticks = p.ticks[:0]
	for _, si := range m.spin {
		var t int64
		if si != nil {
			t = si.ticks
		}
		p.ticks = append(p.ticks, t)
	}
	p.next = steps + p.horizon
	p.horizon = min(2*p.horizon, periodHorizon)
}

// skipPeriods fast-forwards all whole periods but one after the
// configuration at run step steps was found equal to the snapshot, and
// starts recording the last one. It returns the run steps skipped: 0
// when fewer than two whole periods remain, or when some ticking
// thread's two windows at the end of the recorded period would reach
// back to the snapshot or before it, where its ticks need not repeat.
func (m *Machine) skipPeriods(steps, budget int64) int64 {
	p := &m.probe
	st := m.St
	period := steps - p.steps
	k := (budget-steps)/period - 1
	if k <= 0 {
		return 0
	}
	// A thread that had not ticked yet at the snapshot counts from zero.
	for len(p.ticks) < len(m.spin) {
		p.ticks = append(p.ticks, 0)
	}
	for tid, si := range m.spin {
		if si == nil {
			continue
		}
		if d := si.ticks - p.ticks[tid]; d > 0 && firstWindowTick(si.ticks+(k+1)*d) <= p.ticks[tid] {
			return 0
		}
	}
	for i, t := range st.Threads {
		if d := t.Instrs - p.snap.Threads[i].Instrs; d != 0 {
			st.wthread(i).Instrs += k * d
		}
	}
	st.Steps += k * (st.Steps - p.stSteps)
	// Turn p.ticks into per-period tick deltas in place.
	for tid, si := range m.spin {
		if si != nil {
			p.ticks[tid] = si.ticks - p.ticks[tid]
			si.ticks += k * p.ticks[tid]
		}
	}
	// Fusion is off under SpinTrack, so fusedOps has no per-period delta.
	m.internHits += k * (m.internHits - p.intern)
	m.skippedSteps += k * period
	p.snap = nil
	p.rec = spinEvents.Get().(*[]spinEvent)
	*p.rec = (*p.rec)[:0]
	p.recEnd = steps + (k+1)*period
	return k * period
}

// rebuildWindows ends the recorded period: it rebuilds both spin windows
// of every thread that ticked in it and releases the record.
func (m *Machine) rebuildWindows() {
	p := &m.probe
	for tid, si := range m.spin {
		if si != nil && p.ticks[tid] > 0 {
			si.rebuild(m.St.Prog, *p.rec, int32(tid), p.ticks[tid])
		}
	}
	spinEvents.Put(p.rec)
	p.rec = nil
}

// sameConfig reports whether a and b are the same machine configuration
// as far as the State goes: equal in every field the wire codec
// serializes except the counters Steps and Thread.Instrs. Threads come
// first (the running thread's registers tell most non-recurrences
// apart), and every layer a snapshot still shares with its source is
// equal by pointer without being walked. Observer state is opaque, so a
// state carrying observers never compares equal.
func sameConfig(a, b *State) bool {
	if a.Prog != b.Prog || a.Cur != b.Cur || a.NextRef != b.NextRef || a.Halted != b.Halted ||
		a.ArgReads != b.ArgReads || a.In.Pos != b.In.Pos || a.In.NSymbolic != b.In.NSymbolic ||
		len(a.Outputs) != len(b.Outputs) || len(a.PathCond) != len(b.PathCond) ||
		len(a.Threads) != len(b.Threads) || len(a.Observers) != 0 || len(b.Observers) != 0 {
		return false
	}
	for i, ta := range a.Threads {
		if !sameThread(ta, b.Threads[i]) {
			return false
		}
	}
	if !SameSharedMemory(a, b) || !sameSlice(a.Mutexes, b.Mutexes) || !sameFunc(a.Conds, b.Conds, sameCond) ||
		!sameFunc(a.Barriers, b.Barriers, sameBarrier) ||
		!sameFunc(a.Outputs, b.Outputs, sameOutput) || !sameSlice(a.In.Values, b.In.Values) ||
		!sameSlice(a.Args, b.Args) || !sameSlice(a.SymArgs, b.SymArgs) ||
		!sameExprs(a.PathCond, b.PathCond) || !sameSlice(a.Suspended, b.Suspended) ||
		!sameFailure(a.Failure, b.Failure) || len(a.Hints) != len(b.Hints) {
		return false
	}
	for name, v := range a.Hints {
		if w, ok := b.Hints[name]; !ok || w != v {
			return false
		}
	}
	return true
}

// SameSharedMemory reports whether a and b hold the same shared memory:
// every global cell, and every heap block with its cells and freed flag.
// Thread-private frames, scheduling state and counters are not compared.
// This is the Record/Replay-Analyzer's [45] post-race criterion: right
// after the race both racing accesses have executed in both orderings,
// but the threads' own progress necessarily differs, so only shared
// memory is a meaningful comparand. A layer the two states still share
// since a common snapshot is equal by pointer without being walked.
func SameSharedMemory(a, b *State) bool {
	return sameFunc(a.Globals, b.Globals, sameExprs) && sameFunc(a.heap, b.heap, sameBlock)
}

func sameThread(a, b *Thread) bool {
	if a == b {
		return true
	}
	if a.ID != b.ID || a.Status != b.Status || a.WaitMutex != b.WaitMutex || a.WaitCond != b.WaitCond ||
		a.WaitJoin != b.WaitJoin || a.WaitBarrier != b.WaitBarrier || a.WaitPhase != b.WaitPhase ||
		len(a.Frames) != len(b.Frames) {
		return false
	}
	for i, fa := range a.Frames {
		fb := b.Frames[i]
		if fa != fb && (fa.Fn != fb.Fn || fa.PC != fb.PC || !sameExprs(fa.Locals, fb.Locals) || !sameExprs(fa.Stack, fb.Stack)) {
			return false
		}
	}
	return true
}

func sameBlock(a, b *HeapBlock) bool {
	if a == b {
		return true
	}
	return a != nil && b != nil && a.Freed == b.Freed && sameExprs(a.Cells, b.Cells)
}

func sameCond(a, b condState) bool        { return sameSlice(a.Waiters, b.Waiters) }
func sameBarrier(a, b barrierState) bool  { return sameSlice(a.Arrived, b.Arrived) }
func sameFailure(a, b *RuntimeError) bool { return a == b || (a != nil && b != nil && *a == *b) }
func sameExprs(a, b []expr.Expr) bool     { return sameFunc(a, b, sameExpr) }
func sameSlice[T comparable](a, b []T) bool {
	return sameFunc(a, b, func(x, y T) bool { return x == y })
}

func sameOutput(a, b Output) bool {
	return a.TID == b.TID && a.PC == b.PC && sameFunc(a.Parts, b.Parts, func(x, y OutPart) bool {
		return x.Lit == y.Lit && sameExpr(x.E, y.E)
	})
}

func sameExpr(a, b expr.Expr) bool {
	if a == b {
		return true
	}
	return a != nil && b != nil && expr.Equal(a, b)
}

// sameFunc compares two slices element-wise, treating a shared backing
// array (a snapshot's untouched layer) as equal without a walk.
func sameFunc[T any](a, b []T, eq func(x, y T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || unsafe.SliceData(a) == unsafe.SliceData(b) {
		return true
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}
