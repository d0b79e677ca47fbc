// Package trace implements schedule traces and the record/replay
// controllers of Portend's runtime (§3.1).
//
// A trace captures every scheduling decision of an execution: which thread
// was chosen at each preemption point, together with that thread's
// per-thread completed-instruction count and program counter (the paper's
// "absolute count of instructions executed by the program up to each
// preemption point"). Replaying a trace against the same program and
// inputs reproduces the execution exactly; replaying it in multi-path mode
// reproduces the schedule while inputs vary, and the replayer reports
// divergence when a path cannot follow the recorded schedule (such paths
// are pruned before the race point, Fig 5).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// Decision is one scheduling decision.
type Decision struct {
	TID    int
	Instr  int64 // chosen thread's completed instructions at the decision
	PC     bytecode.PCRef
	Global int64 // state-wide completed instructions at the decision
}

// Trace is a recorded schedule plus the inputs that produced it.
type Trace struct {
	Decisions []Decision
	Args      []int64
	Inputs    []int64
}

// String renders the schedule in the paper's (T0:pc0) → (T1:pc1) notation.
func (t *Trace) String() string {
	var b strings.Builder
	for i, d := range t.Decisions {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "(T%d:%d@%d)", d.TID, d.PC.Fn, d.PC.PC)
	}
	return b.String()
}

// NewTraceFor returns an empty trace capturing st's arguments and input
// log — the fixed part of a recording; decisions accumulate as the
// recorded execution runs.
func NewTraceFor(st *vm.State) *Trace {
	return &Trace{
		Args:   append([]int64(nil), st.Args...),
		Inputs: append([]int64(nil), st.In.Values...),
	}
}

// Recorder wraps a controller and appends every decision to a Trace.
type Recorder struct {
	Inner vm.Controller
	T     *Trace
}

// NewRecorder records the decisions of inner into t.
func NewRecorder(inner vm.Controller, t *Trace) *Recorder {
	return &Recorder{Inner: inner, T: t}
}

// PickNext delegates and records.
func (r *Recorder) PickNext(st *vm.State, runnable []int) int {
	tid := r.Inner.PickNext(st, runnable)
	th := st.Threads[tid]
	r.T.Decisions = append(r.T.Decisions, Decision{
		TID:    tid,
		Instr:  th.Instrs,
		PC:     th.PCRef(st.Prog),
		Global: st.Steps,
	})
	return tid
}

// Replayer replays a recorded schedule. When the recorded thread is not
// runnable (the execution has diverged — different input, different path,
// or an enforced alternate ordering) it falls back to Fallback and records
// the divergence point. After the trace is exhausted the fallback drives
// the schedule without marking divergence: executions that "outlive" their
// trace are the normal case for post-race continuation.
type Replayer struct {
	T        *Trace
	Fallback vm.Controller

	pos        int
	Diverged   bool
	DivergedAt int // decision index of first divergence, -1 if none
	Exhausted  bool
}

// NewReplayer replays t, falling back to fallback on divergence or
// exhaustion.
func NewReplayer(t *Trace, fallback vm.Controller) *Replayer {
	return &Replayer{T: t, Fallback: fallback, DivergedAt: -1}
}

// ReplayerAt returns a replayer that has already consumed pos decisions —
// the controller matching a state snapshotted mid-recording after the
// recorder had taken pos scheduling decisions. Resuming that snapshot
// under the returned replayer continues the recorded schedule exactly
// where the recording stood. t may still be recording when ReplayerAt is
// called: the replayer reads t.Decisions lazily, so a position taken
// against the live trace stays valid once the trace is complete.
func ReplayerAt(t *Trace, fallback vm.Controller, pos int) *Replayer {
	return &Replayer{T: t, Fallback: fallback, pos: pos, DivergedAt: -1}
}

// PickNext follows the trace while it matches.
func (r *Replayer) PickNext(st *vm.State, runnable []int) int {
	if r.pos < len(r.T.Decisions) {
		want := r.T.Decisions[r.pos].TID
		r.pos++
		for _, t := range runnable {
			if t == want {
				return want
			}
		}
		if !r.Diverged {
			r.Diverged = true
			r.DivergedAt = r.pos - 1
		}
		return r.Fallback.PickNext(st, runnable)
	}
	r.Exhausted = true
	return r.Fallback.PickNext(st, runnable)
}

// Record runs the program to completion (or the budget) under the given
// base controller, recording the schedule. It returns the trace and the
// run result. This is the "run your test suite under the race detector"
// step: callers attach observers (e.g. the race detector) to st first.
func Record(st *vm.State, base vm.Controller, budget int64) (*Trace, vm.RunResult) {
	return RecordWith(st, base, budget, nil)
}

// RecordWith is Record with an interrupt hook: when interrupt is non-nil
// and reports true the recording stops with vm.StopCancelled, returning
// the (partial) trace recorded so far. This is how a context deadline
// aborts the detection phase.
func RecordWith(st *vm.State, base vm.Controller, budget int64, interrupt func() bool) (*Trace, vm.RunResult) {
	t := NewTraceFor(st)
	m := vm.NewMachine(st, NewRecorder(base, t))
	m.Interrupt = interrupt
	res := m.Run(budget)
	return t, res
}

// CloneCtl returns a replayer continuing from the same trace position,
// with a cloned fallback when the fallback is itself cloneable. Forked
// sibling states in multi-path analysis receive cloned replayers so each
// path independently follows the rest of the recorded schedule (§3.3).
func (r *Replayer) CloneCtl() vm.Controller {
	fb := r.Fallback
	if c, ok := fb.(vm.CloneableController); ok {
		fb = c.CloneCtl()
	}
	return &Replayer{
		T: r.T, Fallback: fb,
		pos: r.pos, Diverged: r.Diverged, DivergedAt: r.DivergedAt,
		Exhausted: r.Exhausted,
	}
}
