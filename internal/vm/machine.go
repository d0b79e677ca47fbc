package vm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

// Controller decides which thread runs next at each scheduling point.
// Scheduling points are synchronization operations and thread
// blocking/exit — the paper's preemption-point discipline (§3.1).
type Controller interface {
	// PickNext returns the id of the next thread to run; runnable is
	// non-empty and sorted by thread id.
	PickNext(st *State, runnable []int) int
}

// Stop is a declarative breakpoint: Run parks with StopBreak before the
// current thread's next instruction when a condition in On holds. The
// zero Stop never matches, and Step sets the stop aside.
type Stop struct {
	On StopOn

	TID    int   // AtAccess's thread; AtObject's, or any thread when negative
	Instrs int64 // AtAccess's Thread.Instrs: the access's trace coordinate (§3.1)
	Space  Space // AtObject's object class: global Obj, or every heap object
	Obj    int64
	Steps  int64 // AtSteps's State.Steps target
}

// StopOn is a set of Stop conditions.
type StopOn uint8

// Stop conditions. AtAccess and AtSteps read step counters, so they
// turn the period probe off (probeable); the others are functions of the
// configuration alone.
const (
	AtAccess StopOn = 1 << iota // thread TID's shared access at Thread.Instrs == Instrs
	AtObject                    // a shared access to the object class (Space, Obj)
	AtFork                      // a branch multi-path exploration may fork at (ForkCond)
	AtSteps                     // the first non-sync instruction once State.Steps >= Steps
)

// stopOn maps each opcode to the conditions besides AtSteps that can
// hold before it: AtAccess and AtObject at a shared access, AtFork at a
// JZ, ASSERT, DIV or MOD.
var stopOn = func() (t [256]StopOn) {
	for op := range t {
		if bytecode.OpCode(op).IsSharedAccess() {
			t[op] = AtAccess | AtObject
		}
	}
	t[bytecode.JZ], t[bytecode.ASSERT], t[bytecode.DIV], t[bytecode.MOD] = AtFork, AtFork, AtFork, AtFork
	return t
}()

// gate reports whether s can hold before an instruction with opcode op;
// Run calls match only where it can.
func (s *Stop) gate(st *State, op bytecode.OpCode) bool {
	return s.On&stopOn[op] != 0 || s.On&AtSteps != 0 && st.Steps >= s.Steps
}

// match reports whether s holds before thread th, whose top frame is fr,
// executes in.
func (s *Stop) match(st *State, th *Thread, fr *Frame, in bytecode.Instr) bool {
	if s.On&AtSteps != 0 && st.Steps >= s.Steps && !in.Op.IsSyncOp() ||
		s.On&AtFork != 0 && forkCond(fr, in.Op) != nil {
		return true
	}
	if !in.Op.IsSharedAccess() || s.TID >= 0 && s.TID != th.ID {
		return false
	}
	if s.On&AtAccess != 0 && th.Instrs == s.Instrs {
		return true
	}
	switch in.Op {
	case bytecode.LOADG, bytecode.STOREG, bytecode.LOADE, bytecode.STOREE:
		return s.On&AtObject != 0 && s.Space == SpaceGlobal && in.A == s.Obj
	}
	return s.On&AtObject != 0 && s.Space == SpaceHeap
}

// ForkCond returns the 0/1 condition of the symbolic branch the current
// thread is parked before (by Run) — a JZ or ASSERT on a symbolic stack
// top, or a DIV or MOD by a symbolic divisor — or nil when its next
// instruction is none of these.
func (m *Machine) ForkCond() expr.Expr {
	fr := m.St.Threads[m.St.Cur].Top()
	return forkCond(fr, m.St.Prog.Funcs[fr.Fn].Code[fr.PC].Op)
}

func forkCond(fr *Frame, op bytecode.OpCode) expr.Expr {
	if stopOn[op]&AtFork == 0 || len(fr.Stack) == 0 {
		return nil
	}
	top := fr.Stack[len(fr.Stack)-1]
	switch {
	case expr.IsConcrete(top):
		return nil
	case op == bytecode.DIV || op == bytecode.MOD:
		return expr.Ne(top, expr.NewConst(0))
	}
	return expr.NeZero(top)
}

// Machine drives a State: scheduling, interpretation, stops, and
// symbolic branching. The Machine itself is transient (not checkpointed);
// all persistent execution state lives in State.
type Machine struct {
	St   *State
	Ctl  Controller
	Stop Stop

	// SpinTrack enables the loop diagnosis used on alternate-enforcement
	// timeouts (infinite loop vs ad-hoc synchronization, §3.5). While it
	// is on, the superinstruction fast path is disabled so the per-
	// instruction tick window of the diagnosis stays exactly as in
	// unfused execution, and Run fast-forwards provably periodic
	// stretches (period.go), rebuilding the diagnosis windows from one
	// recorded period, with results identical to interpreting them; a
	// stop that reads Steps or Instrs turns that off (probeable). Only
	// the diagnosis after a budget stop reads the tracking data, so turn
	// it off for runs that cannot end in one.
	SpinTrack bool
	spin      []*spinInfo // per-thread, indexed by tid

	// Counters, when non-nil, receives this machine's fast-path tallies
	// (fused superinstructions, interned constants) at the end of each
	// Run call. The classification engine shares one Counters per race.
	Counters *Counters

	// Interrupt, when non-nil, is polled periodically during Run (and
	// once on entry); when it reports true the run stops with
	// StopCancelled. This is how context cancellation reaches the
	// interpreter's budget loop without the vm depending on context.
	Interrupt func() bool

	// suppress re-asking the controller for the point it just chose
	skipTID   int
	skipInstr int64

	// scratch is the reused runnable-thread buffer; scheduling points
	// rebuild it in place so the interpreter loop never allocates.
	// Controllers receive it read-only for the duration of PickNext and
	// must not retain it.
	scratch []int

	// Local fast-path tallies, flushed into Counters per Run call.
	fusedOps     int64
	internHits   int64
	skippedSteps int64

	// slab mints the non-interned constants this machine pushes and
	// folds, 32 to an allocation; the machine runs on one goroutine.
	slab expr.ConstSlab

	probe periodProbe // spin-tracked runs' period detector (period.go)
}

// NewMachine returns a machine over st with the given controller.
func NewMachine(st *State, ctl Controller) *Machine {
	return &Machine{St: st, Ctl: ctl, skipTID: -1}
}

func (m *Machine) pick(runnable []int) {
	t := m.Ctl.PickNext(m.St, runnable)
	valid := false
	for _, r := range runnable {
		if r == t {
			valid = true
			break
		}
	}
	if !valid {
		t = runnable[0]
	}
	m.St.Cur = t
	m.skipTID = t
	m.skipInstr = m.St.Threads[t].Instrs
}

// interruptStride is how many loop iterations pass between Interrupt
// polls; cancellation latency is bounded by this many instructions.
const interruptStride = 256

// PollDone returns an Interrupt that reports whether done is closed — a
// context's Done channel — by a non-blocking receive, which takes no
// lock. It returns nil for a nil channel (a context that is never
// cancelled), so Run does not poll at all.
func PollDone(done <-chan struct{}) func() bool {
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// Run executes until the program finishes, fails, deadlocks, reaches
// its stop, is interrupted, or exhausts the budget (budget < 0 means
// unlimited).
//
// The loop is the analysis' innermost hot path: every replay, alternate
// enforcement, and multi-path exploration step goes through it. It runs
// in quanta: the outer loop settles on a runnable current thread, and
// the inner loop runs it in its top frame until a CALL or RET completes,
// an instruction blocks, or the pick at a sync op switches threads. The
// scheduler is consulted only at sync ops and when the current thread
// cannot run. A quantum fetches the frame's code and fusion overlay
// once, privatizes the thread and frame once (again after a period-probe
// snapshot, see snapshotConfig) and tests the stop only where it can
// hold (Stop.gate). Fused sequences run in one dispatch with counters
// advanced by their covered length, so traces, budgets, and race
// coordinates are bit-identical to unfused execution.
func (m *Machine) Run(budget int64) RunResult {
	res := m.run(budget)
	if spinRunHook != nil && m.SpinTrack {
		spinRunHook(m, budget, res)
	}
	if m.Counters != nil && (m.fusedOps != 0 || m.internHits != 0 || m.skippedSteps != 0) {
		m.Counters.FusedOps.Add(m.fusedOps)
		m.Counters.InternedConsts.Add(m.internHits)
		m.Counters.SkippedSteps.Add(m.skippedSteps)
		m.fusedOps, m.internHits, m.skippedSteps = 0, 0, 0
	}
	return res
}

func (m *Machine) run(budget int64) RunResult {
	st := m.St
	var steps int64
	var tick int64
	m.probe.reset()
	probing := m.probeable(budget)
	for {
		if m.Interrupt != nil {
			if tick%interruptStride == 0 && m.Interrupt() {
				return RunResult{Kind: StopCancelled, Steps: steps}
			}
			tick++
		}
		if st.Failure != nil {
			return RunResult{Kind: StopError, Err: st.Failure, Steps: steps}
		}
		if st.Halted {
			return RunResult{Kind: StopFinished, Steps: steps}
		}

		cur := st.Cur
		if cur < 0 || cur >= len(st.Threads) {
			if kind, stop := m.reschedule(); stop {
				return RunResult{Kind: kind, Steps: steps}
			}
			continue
		}
		th := st.Threads[cur]
		if th.Status != ThRunnable || st.IsSuspended(cur) {
			if kind, stop := m.reschedule(); stop {
				return RunResult{Kind: kind, Steps: steps}
			}
			continue
		}

		// One quantum. Fusion is off under SpinTrack, so the diagnosis's
		// per-instruction tick window stays exactly as in unfused runs.
		fr := th.Top()
		fn := &st.Prog.Funcs[fr.Fn]
		code, fused := fn.Code, fn.Fused
		if m.SpinTrack {
			fused = nil
		}
		owned := false
		for first := true; ; first = false {
			if !first && m.Interrupt != nil {
				if tick%interruptStride == 0 && m.Interrupt() {
					return RunResult{Kind: StopCancelled, Steps: steps}
				}
				tick++
			}
			if fr.PC >= len(code) {
				return RunResult{Kind: StopError, Err: st.fail(ErrStack, cur, th.PCRef(st.Prog), "pc out of range"), Steps: steps}
			}
			in := code[fr.PC]

			// Period probe (spin-tracked runs only, see period.go): on a
			// proven recurrence of the whole configuration, fast-forward all
			// whole periods but one; the loop interprets that one while the
			// probe records it, then the remainder as usual. A snapshot
			// shares every layer this quantum owned, and a skip moves the
			// thread counters, so after either the quantum privatizes again.
			if probing {
				var skipped int64
				skipped, probing = m.probePeriod(steps, budget, fr)
				if skipped > 0 || atomic.LoadUint32(&st.sharedFlag) != 0 {
					steps += skipped
					th = st.Threads[cur]
					fr, owned = th.Top(), false
				}
			}

			// Scheduling decision before sync ops, unless the controller just
			// picked this very point.
			if in.Op.IsSyncOp() && !(m.skipTID == cur && m.skipInstr == th.Instrs) {
				m.scratch = st.AppendRunnableTIDs(m.scratch[:0])
				m.pick(m.scratch)
				if st.Cur != cur {
					break
				}
			}

			// Re-read m.Stop every time: the race detector lowers its
			// Steps target from inside exec.
			if m.Stop.gate(st, in.Op) && m.Stop.match(st, th, fr, in) {
				return RunResult{Kind: StopBreak, Steps: steps}
			}
			if budget >= 0 && steps >= budget {
				return RunResult{Kind: StopBudget, Steps: steps}
			}

			// The instruction will now execute: privatize the current thread
			// and its top frame so the in-place register/stack/PC writes land
			// on structure this state owns. Only the probe above clones the
			// state inside a quantum, so once is enough. Other layers
			// privatize at their write sites in exec.
			if !owned {
				th = st.wthread(cur)
				fr, owned = st.wtop(th), true
			}

			// Superinstruction fast path: execute a whole fused sequence in
			// one dispatch. Interior instructions are thread-local and side-
			// effect-free (no sync ops, shared accesses, jumps, or failure
			// paths), so skipping their stop/scheduling checks is sound; the
			// counters advance by the covered length so budgets and traces
			// cannot tell the difference. Near budget exhaustion (a stop
			// could land mid-sequence) the sequence runs unfused instead.
			// Only a LOADL or a PUSH can start a sequence (fuse.go), so
			// the overlay is read only there.
			if fused != nil && (in.Op == bytecode.LOADL || in.Op == bytecode.PUSH) {
				if f := &fused[fr.PC]; f.Kind != bytecode.FuseNone && (budget < 0 || steps+int64(f.Len) <= budget) && m.execFused(fr, f) {
					n := int64(f.Len)
					th.Instrs += n
					st.Steps += n
					steps += n
					continue
				}
			}

			completed, err := m.exec(th, fr, in, bytecode.PCRef{Fn: fr.Fn, PC: fr.PC, Line: in.Line})
			if err != nil {
				return RunResult{Kind: StopError, Err: err, Steps: steps}
			}
			if !completed {
				break
			}
			th.Instrs++
			st.Steps++
			steps++
			if in.Op == bytecode.CALL || in.Op == bytecode.RET {
				break
			}
		}
	}
}

// reschedule picks a new current thread when the present one cannot run.
// stop is true when no thread can: the program finished (every thread
// exited), only suspended threads could progress (stuck), or no live
// thread is schedulable (deadlock).
func (m *Machine) reschedule() (kind StopKind, stop bool) {
	st := m.St
	m.scratch = st.AppendRunnableTIDs(m.scratch[:0])
	if len(m.scratch) == 0 {
		if st.LiveCount() == 0 {
			return StopFinished, true
		}
		// Would any suspended thread be schedulable if resumed?
		for _, t := range st.Threads {
			if st.IsSuspended(t.ID) && t.Status == ThRunnable {
				return StopStuck, true
			}
		}
		return StopDeadlock, true
	}
	m.pick(m.scratch)
	return 0, false
}

// Step executes exactly one completed instruction of the current thread
// (scheduling if needed), with the stop set aside, and reports StopBreak
// once it has. The classifier uses it to move just past a racing access.
func (m *Machine) Step() RunResult {
	stop := m.Stop
	m.Stop = Stop{}
	// Budget 1: the run ends after one completion, and the headroom is too
	// small for any fused sequence — Step's exactly-one-instruction
	// contract holds whether or not the program carries a fusion overlay.
	res := m.Run(1)
	m.Stop = stop
	if res.Kind == StopBudget {
		res.Kind = StopBreak
	}
	return res
}

func (m *Machine) pop(th *Thread, fr *Frame, pcref bytecode.PCRef) (expr.Expr, *RuntimeError) {
	if len(fr.Stack) == 0 {
		return nil, m.St.fail(ErrStack, th.ID, pcref, "pop on empty stack")
	}
	v := fr.Stack[len(fr.Stack)-1]
	fr.Stack = fr.Stack[:len(fr.Stack)-1]
	return v, nil
}

// concretize picks e's value under the state's concolic hints (every
// symbol carries the value observed or chosen for this path) and records
// e == value as a path constraint.
func (m *Machine) concretize(e expr.Expr, th *Thread, pcref bytecode.PCRef) (int64, *RuntimeError) {
	if v, ok := expr.ConstVal(e); ok {
		return v, nil
	}
	v, err := m.St.HintEval(e)
	if err != nil {
		return 0, m.St.fail(ErrStack, th.ID, pcref, "unhinted symbol in value: "+err.Error())
	}
	m.St.AddConstraint(expr.Eq(e, expr.NewConst(v)))
	return v, nil
}

// branch resolves a possibly-symbolic 0/1 condition the way the state's
// concolic hints direct, recording the path constraint for the taken
// side.
func (m *Machine) branch(cond expr.Expr, th *Thread, pcref bytecode.PCRef) (bool, *RuntimeError) {
	if v, ok := expr.ConstVal(cond); ok {
		return v != 0, nil
	}
	norm := expr.NeZero(cond)
	v, err := m.St.HintEval(norm)
	if err != nil {
		return false, m.St.fail(ErrStack, th.ID, pcref, "unhinted symbol in branch: "+err.Error())
	}
	taken := v != 0
	if taken {
		m.St.AddConstraint(norm)
	} else {
		m.St.AddConstraint(expr.LNot(norm))
	}
	return taken, nil
}

// execFused interprets one superinstruction. It returns false when a
// precondition fails (operand-stack underflow), in which case the caller
// falls back to executing the original instructions — which raise the
// exact error unfused execution would.
func (m *Machine) execFused(fr *Frame, f *bytecode.FusedInstr) bool {
	switch f.Kind {
	case bytecode.FuseLocalConstOp:
		// LOADL src; PUSH k; binop; STOREL dst — no stack traffic at all.
		fr.Locals[f.Dst] = m.slab.BinaryK(binOpOf(f.Op), fr.Locals[f.Src], f.K)
	case bytecode.FuseConstOp:
		// PUSH k; binop — combine with the stack top in place.
		n := len(fr.Stack)
		if n == 0 {
			return false
		}
		fr.Stack[n-1] = m.slab.BinaryK(binOpOf(f.Op), fr.Stack[n-1], f.K)
	default:
		return false
	}
	fr.PC += int(f.Len)
	m.fusedOps++
	if expr.Interned(f.K) {
		m.internHits++
	}
	return true
}

// maxAllocCells bounds a single allocation.
const maxAllocCells = 1 << 20

// exec interprets one instruction. It returns completed=false when the
// thread blocked (the instruction will be retried or completed later).
func (m *Machine) exec(th *Thread, fr *Frame, in bytecode.Instr, pcref bytecode.PCRef) (bool, *RuntimeError) {
	st := m.St
	tid := th.ID
	p := st.Prog

	if m.SpinTrack {
		m.trackSpinPC(tid, in, pcref)
	}

	switch in.Op {
	case bytecode.NOP:
		fr.PC++
		return true, nil

	case bytecode.PUSH:
		if expr.Interned(in.A) {
			m.internHits++
		}
		fr.Stack = append(fr.Stack, m.slab.Const(in.A))
		fr.PC++
		return true, nil

	case bytecode.POP:
		if _, err := m.pop(th, fr, pcref); err != nil {
			return false, err
		}
		fr.PC++
		return true, nil

	case bytecode.DUP:
		if len(fr.Stack) == 0 {
			return false, st.fail(ErrStack, tid, pcref, "dup on empty stack")
		}
		fr.Stack = append(fr.Stack, fr.Stack[len(fr.Stack)-1])
		fr.PC++
		return true, nil

	case bytecode.LOADL:
		fr.Stack = append(fr.Stack, fr.Locals[in.A])
		fr.PC++
		return true, nil

	case bytecode.STOREL:
		v, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		fr.Locals[in.A] = v
		fr.PC++
		return true, nil

	case bytecode.LOADG:
		loc := Loc{Space: SpaceGlobal, Obj: in.A}
		st.notifyAccess(tid, loc, false, pcref, th.Instrs)
		if m.SpinTrack {
			m.trackSpinRead(tid, loc)
		}
		fr.Stack = append(fr.Stack, st.Globals[in.A][0])
		fr.PC++
		return true, nil

	case bytecode.STOREG:
		v, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		st.notifyAccess(tid, Loc{Space: SpaceGlobal, Obj: in.A}, true, pcref, th.Instrs)
		st.wglobals()
		st.Globals[in.A][0] = v
		fr.PC++
		return true, nil

	case bytecode.LOADE, bytecode.STOREE:
		var val expr.Expr
		if in.Op == bytecode.STOREE {
			v, err := m.pop(th, fr, pcref)
			if err != nil {
				return false, err
			}
			val = v
		}
		idxE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		idx, err := m.concretize(idxE, th, pcref)
		if err != nil {
			return false, err
		}
		cells := st.Globals[in.A]
		if idx < 0 || idx >= int64(len(cells)) {
			return false, st.fail(ErrOutOfBounds, tid, pcref,
				fmt.Sprintf("index %d out of range for %s[%d]", idx, p.Globals[in.A].Name, len(cells)))
		}
		loc := Loc{Space: SpaceGlobal, Obj: in.A, Elem: idx}
		if in.Op == bytecode.LOADE {
			st.notifyAccess(tid, loc, false, pcref, th.Instrs)
			if m.SpinTrack {
				m.trackSpinRead(tid, loc)
			}
			fr.Stack = append(fr.Stack, cells[idx])
		} else {
			st.notifyAccess(tid, loc, true, pcref, th.Instrs)
			st.wglobals()
			st.Globals[in.A][idx] = val
		}
		fr.PC++
		return true, nil

	case bytecode.ALLOC:
		nE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		n, err := m.concretize(nE, th, pcref)
		if err != nil {
			return false, err
		}
		if n <= 0 || n > maxAllocCells {
			return false, st.fail(ErrAllocSize, tid, pcref, fmt.Sprintf("alloc(%d)", n))
		}
		cells := make([]expr.Expr, n)
		for i := range cells {
			cells[i] = expr.NewConst(0)
		}
		// Heap refs are dense and never reused (FREE marks, it does not
		// delete), so the new block's ref is exactly the heap's next
		// index; NextRef is kept as the serialized form of that cursor.
		ref := st.allocBlock(cells)
		st.NextRef = ref + 1
		fr.Stack = append(fr.Stack, expr.NewConst(ref))
		fr.PC++
		return true, nil

	case bytecode.FREE:
		refE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		ref, err := m.concretize(refE, th, pcref)
		if err != nil {
			return false, err
		}
		blk := st.heapBlock(ref)
		if blk == nil {
			return false, st.fail(ErrBadRef, tid, pcref, fmt.Sprintf("free(%d)", ref))
		}
		st.notifyAccess(tid, Loc{Space: SpaceHeap, Obj: ref}, true, pcref, th.Instrs)
		if blk.Freed {
			return false, st.fail(ErrDoubleFree, tid, pcref, fmt.Sprintf("free(%d)", ref))
		}
		st.wblock(ref, blk).Freed = true
		fr.PC++
		return true, nil

	case bytecode.LOADH, bytecode.STOREH:
		var val expr.Expr
		if in.Op == bytecode.STOREH {
			v, err := m.pop(th, fr, pcref)
			if err != nil {
				return false, err
			}
			val = v
		}
		idxE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		refE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		idx, err := m.concretize(idxE, th, pcref)
		if err != nil {
			return false, err
		}
		ref, err := m.concretize(refE, th, pcref)
		if err != nil {
			return false, err
		}
		blk := st.heapBlock(ref)
		if blk == nil {
			return false, st.fail(ErrBadRef, tid, pcref, fmt.Sprintf("heap ref %d", ref))
		}
		if blk.Freed {
			return false, st.fail(ErrUseAfterFree, tid, pcref, fmt.Sprintf("heap ref %d", ref))
		}
		if idx < 0 || idx >= int64(len(blk.Cells)) {
			return false, st.fail(ErrOutOfBounds, tid, pcref,
				fmt.Sprintf("heap index %d out of range [0,%d)", idx, len(blk.Cells)))
		}
		loc := Loc{Space: SpaceHeap, Obj: ref, Elem: idx}
		if in.Op == bytecode.LOADH {
			st.notifyAccess(tid, loc, false, pcref, th.Instrs)
			if m.SpinTrack {
				m.trackSpinRead(tid, loc)
			}
			fr.Stack = append(fr.Stack, blk.Cells[idx])
		} else {
			st.notifyAccess(tid, loc, true, pcref, th.Instrs)
			st.wblock(ref, blk).Cells[idx] = val
		}
		fr.PC++
		return true, nil

	case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.MOD,
		bytecode.BAND, bytecode.BOR, bytecode.BXOR, bytecode.SHL, bytecode.SHR,
		bytecode.EQ, bytecode.NE, bytecode.LT, bytecode.LE, bytecode.GT, bytecode.GE:
		r, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		l, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		if in.Op == bytecode.DIV || in.Op == bytecode.MOD {
			if rv, ok := expr.ConstVal(r); ok {
				if rv == 0 {
					return false, st.fail(ErrDivZero, tid, pcref, "")
				}
			} else {
				nz, berr := m.branch(expr.Ne(r, expr.NewConst(0)), th, pcref)
				if berr != nil {
					return false, berr
				}
				if !nz {
					return false, st.fail(ErrDivZero, tid, pcref, "symbolic divisor can be zero")
				}
			}
		}
		fr.Stack = append(fr.Stack, m.slab.Binary(binOpOf(in.Op), l, r))
		fr.PC++
		return true, nil

	case bytecode.NEG, bytecode.BNOT, bytecode.LNOT, bytecode.NEZ:
		x, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		var res expr.Expr
		switch in.Op {
		case bytecode.NEG:
			res = expr.Neg(x)
		case bytecode.BNOT:
			res = expr.NewUnary(expr.OpBNot, x)
		case bytecode.LNOT:
			res = expr.LNot(x)
		case bytecode.NEZ:
			res = expr.NeZero(x)
		}
		fr.Stack = append(fr.Stack, res)
		fr.PC++
		return true, nil

	case bytecode.JMP:
		fr.PC = int(in.A)
		return true, nil

	case bytecode.JZ:
		c, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		taken, berr := m.branch(c, th, pcref)
		if berr != nil {
			return false, berr
		}
		if taken {
			fr.PC++ // condition non-zero: fall through
		} else {
			fr.PC = int(in.A)
		}
		return true, nil

	case bytecode.CALL:
		fn := &p.Funcs[in.A]
		n := int(in.B)
		if len(fr.Stack) < n {
			return false, st.fail(ErrStack, tid, pcref, "call args underflow")
		}
		locals := make([]expr.Expr, fn.NLocals)
		for i := range locals {
			locals[i] = expr.NewConst(0)
		}
		copy(locals, fr.Stack[len(fr.Stack)-n:])
		fr.Stack = fr.Stack[:len(fr.Stack)-n]
		fr.PC++
		th.Frames = append(th.Frames, st.newFrame(int(in.A), locals))
		return true, nil

	case bytecode.RET:
		v, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		th.Frames = th.Frames[:len(th.Frames)-1]
		if len(th.Frames) == 0 {
			th.Status = ThExited
			st.notifySync(SyncEvent{Kind: EvExit, TID: tid})
			// Wake joiners, privatizing each woken thread first.
			for i := range st.Threads {
				if t := st.Threads[i]; t.Status == ThBlockedJoin && t.WaitJoin == tid {
					wt := st.wthread(i)
					wt.Status = ThRunnable
					wt.WaitJoin = -1
				}
			}
			if tid == 0 {
				st.Halted = true // main returned: process exit
			}
			return true, nil
		}
		top := st.wtop(th) // caller frame: receives the return value
		top.Stack = append(top.Stack, v)
		return true, nil

	case bytecode.SPAWN:
		fn := &p.Funcs[in.A]
		n := int(in.B)
		if len(fr.Stack) < n {
			return false, st.fail(ErrStack, tid, pcref, "spawn args underflow")
		}
		locals := make([]expr.Expr, fn.NLocals)
		for i := range locals {
			locals[i] = expr.NewConst(0)
		}
		copy(locals, fr.Stack[len(fr.Stack)-n:])
		fr.Stack = fr.Stack[:len(fr.Stack)-n]
		child := &Thread{
			ID: len(st.Threads), Status: ThRunnable,
			Frames:    []*Frame{st.newFrame(int(in.A), locals)},
			WaitMutex: -1, WaitCond: -1, WaitJoin: -1, WaitBarrier: -1,
			stamp: st.epoch,
		}
		st.Threads = append(st.Threads, child)
		fr.Stack = append(fr.Stack, expr.NewConst(int64(child.ID)))
		fr.PC++
		st.notifySync(SyncEvent{Kind: EvSpawn, TID: tid, Obj: child.ID})
		return true, nil

	case bytecode.JOIN:
		if len(fr.Stack) == 0 {
			return false, st.fail(ErrStack, tid, pcref, "join on empty stack")
		}
		tgtE := fr.Stack[len(fr.Stack)-1] // peek; pop only on completion
		tgt, err := m.concretize(tgtE, th, pcref)
		if err != nil {
			return false, err
		}
		if tgt < 0 || tgt >= int64(len(st.Threads)) || int(tgt) == tid {
			return false, st.fail(ErrJoinBad, tid, pcref, fmt.Sprintf("join(%d)", tgt))
		}
		if st.Threads[tgt].Status != ThExited {
			th.Status = ThBlockedJoin
			th.WaitJoin = int(tgt)
			return false, nil
		}
		fr.Stack = fr.Stack[:len(fr.Stack)-1]
		fr.PC++
		st.notifySync(SyncEvent{Kind: EvJoin, TID: tid, Obj: int(tgt)})
		return true, nil

	case bytecode.LOCK:
		owner := st.Mutexes[in.A].Owner
		if owner == tid {
			return false, st.fail(ErrRelock, tid, pcref, p.Mutexes[in.A])
		}
		if owner == -1 {
			st.wsync()
			st.Mutexes[in.A].Owner = tid
			fr.PC++
			st.notifySync(SyncEvent{Kind: EvAcquire, TID: tid, Obj: int(in.A)})
			return true, nil
		}
		th.Status = ThBlockedMutex
		th.WaitMutex = int(in.A)
		return false, nil

	case bytecode.UNLOCK:
		if st.Mutexes[in.A].Owner != tid {
			return false, st.fail(ErrUnlockNotOwned, tid, pcref, p.Mutexes[in.A])
		}
		m.unlockMutex(int(in.A), tid)
		fr.PC++
		return true, nil

	case bytecode.WAIT:
		condID, mutID := int(in.A), int(in.B)
		if th.WaitPhase == 1 {
			// Reacquire phase after being signaled.
			if st.Mutexes[mutID].Owner == -1 {
				st.wsync()
				st.Mutexes[mutID].Owner = tid
				th.WaitPhase = 0
				fr.PC++
				st.notifySync(SyncEvent{Kind: EvAcquire, TID: tid, Obj: mutID})
				return true, nil
			}
			th.Status = ThBlockedMutex
			th.WaitMutex = mutID
			return false, nil
		}
		// Fresh arrival: must hold the mutex; release it and block.
		if st.Mutexes[mutID].Owner != tid {
			return false, st.fail(ErrUnlockNotOwned, tid, pcref, "wait without holding "+p.Mutexes[mutID])
		}
		m.unlockMutex(mutID, tid)
		st.Conds[condID].Waiters = append(st.Conds[condID].Waiters, tid)
		th.Status = ThBlockedCond
		th.WaitCond = condID
		return false, nil

	case bytecode.SIGNAL, bytecode.BROADCAST:
		var woken []int
		nwake := len(st.Conds[in.A].Waiters)
		if in.Op == bytecode.SIGNAL && nwake > 1 {
			nwake = 1
		}
		if nwake > 0 {
			st.wsync()
			cs := &st.Conds[in.A]
			for i := 0; i < nwake; i++ {
				w := cs.Waiters[i]
				wt := st.wthread(w)
				wt.Status = ThRunnable
				wt.WaitCond = -1
				wt.WaitPhase = 1
				woken = append(woken, w)
			}
			cs.Waiters = cs.Waiters[nwake:]
		}
		fr.PC++
		if len(woken) > 0 {
			st.notifySync(SyncEvent{Kind: EvSignal, TID: tid, Obj: int(in.A), Others: woken})
		}
		return true, nil

	case bytecode.BARRIER:
		st.wsync()
		bs := &st.Barriers[in.A]
		bs.Arrived = append(bs.Arrived, tid)
		if int64(len(bs.Arrived)) >= p.Barriers[in.A].Count {
			released := append([]int(nil), bs.Arrived...)
			bs.Arrived = nil
			for _, rid := range released {
				if rid == tid {
					continue
				}
				rt := st.wthread(rid)
				rt.Status = ThRunnable
				rt.WaitBarrier = -1
				// Complete their BARRIER instruction on their behalf.
				st.wtop(rt).PC++
				rt.Instrs++
				st.Steps++
			}
			fr.PC++
			st.notifySync(SyncEvent{Kind: EvBarrier, TID: tid, Obj: int(in.A), Others: released})
			return true, nil
		}
		th.Status = ThBlockedBarrier
		th.WaitBarrier = int(in.A)
		return false, nil

	case bytecode.YIELD:
		fr.PC++
		return true, nil

	case bytecode.SLEEP:
		if _, err := m.pop(th, fr, pcref); err != nil {
			return false, err
		}
		fr.PC++
		return true, nil

	case bytecode.PRINT:
		desc := p.Prints[in.A]
		n := int(in.B)
		if len(fr.Stack) < n {
			return false, st.fail(ErrStack, tid, pcref, "print args underflow")
		}
		vals := append([]expr.Expr(nil), fr.Stack[len(fr.Stack)-n:]...)
		fr.Stack = fr.Stack[:len(fr.Stack)-n]
		parts := make([]OutPart, 0, len(desc))
		vi := 0
		for _, d := range desc {
			if d.IsExpr {
				parts = append(parts, OutPart{E: vals[vi]})
				vi++
			} else {
				parts = append(parts, OutPart{Lit: d.Lit})
			}
		}
		st.Outputs = append(st.Outputs, Output{TID: tid, PC: pcref, Parts: parts})
		fr.PC++
		return true, nil

	case bytecode.INPUT:
		pos := st.In.Pos
		var v expr.Expr
		if pos < st.In.NSymbolic {
			hint := int64(0)
			if pos < len(st.In.Values) {
				hint = st.In.Values[pos]
			}
			v = st.NewSym(inputSymName(pos), hint)
		} else {
			cv := int64(0)
			if pos < len(st.In.Values) {
				cv = st.In.Values[pos]
			}
			v = expr.NewConst(cv)
		}
		st.In.Pos++
		fr.Stack = append(fr.Stack, v)
		fr.PC++
		return true, nil

	case bytecode.ARG:
		iE, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		i, err := m.concretize(iE, th, pcref)
		if err != nil {
			return false, err
		}
		if i < 0 || i >= int64(len(st.Args)) {
			return false, st.fail(ErrBadArg, tid, pcref, fmt.Sprintf("arg(%d) of %d", i, len(st.Args)))
		}
		st.ArgReads++
		if st.SymArgs[i] {
			s, ok := st.argSyms[int(i)]
			if !ok {
				s = st.NewSym(argSymName(int(i)), st.Args[i])
				st.wargs()
				if st.argSyms == nil {
					st.argSyms = map[int]*expr.Sym{}
				}
				st.argSyms[int(i)] = s
			}
			fr.Stack = append(fr.Stack, s)
		} else {
			fr.Stack = append(fr.Stack, expr.NewConst(st.Args[i]))
		}
		fr.PC++
		return true, nil

	case bytecode.ASSERT:
		c, err := m.pop(th, fr, pcref)
		if err != nil {
			return false, err
		}
		holds, berr := m.branch(c, th, pcref)
		if berr != nil {
			return false, berr
		}
		if !holds {
			return false, st.fail(ErrAssert, tid, pcref, "")
		}
		fr.PC++
		return true, nil
	}
	return false, st.fail(ErrStack, tid, pcref, "unknown opcode "+in.Op.String())
}

// unlockMutex releases m and wakes every thread blocked acquiring it
// (they retry their LOCK/WAIT-reacquire instruction).
func (m *Machine) unlockMutex(mid, tid int) {
	st := m.St
	st.wsync()
	st.Mutexes[mid].Owner = -1
	for i := range st.Threads {
		if t := st.Threads[i]; t.Status == ThBlockedMutex && t.WaitMutex == mid {
			wt := st.wthread(i)
			wt.Status = ThRunnable
			wt.WaitMutex = -1
		}
	}
	st.notifySync(SyncEvent{Kind: EvRelease, TID: tid, Obj: mid})
}

func binOpOf(op bytecode.OpCode) expr.Op {
	switch op {
	case bytecode.ADD:
		return expr.OpAdd
	case bytecode.SUB:
		return expr.OpSub
	case bytecode.MUL:
		return expr.OpMul
	case bytecode.DIV:
		return expr.OpDiv
	case bytecode.MOD:
		return expr.OpMod
	case bytecode.BAND:
		return expr.OpAnd
	case bytecode.BOR:
		return expr.OpOr
	case bytecode.BXOR:
		return expr.OpXor
	case bytecode.SHL:
		return expr.OpShl
	case bytecode.SHR:
		return expr.OpShr
	case bytecode.EQ:
		return expr.OpEq
	case bytecode.NE:
		return expr.OpNe
	case bytecode.LT:
		return expr.OpLt
	case bytecode.LE:
		return expr.OpLe
	case bytecode.GT:
		return expr.OpGt
	case bytecode.GE:
		return expr.OpGe
	}
	return expr.OpInvalid
}
