// Package explore implements Portend's multi-path symbolic exploration
// (Algorithm 2, §3.3): running a state concolically and forking a sibling
// state whenever a branch on symbolic data has a feasible unexplored side.
//
// Forking works by checkpointing: when the current thread is about to
// execute a branch whose condition involves symbolic input (a JZ, an
// ASSERT, or a division whose divisor is symbolic), the engine asks the
// solver whether the direction *not* taken by the current concolic hints
// is feasible under the accumulated path condition. If so, the state is
// cloned and the clone's hints are replaced with a model of the negated
// constraint — the clone then naturally follows the other side when it
// resumes, and the VM's concolic policy records the matching path
// constraint. This reproduces KLEE-style state forking on top of a plain
// concolic interpreter.
package explore

import (
	"repro/internal/bytecode"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/vm"
)

// Engine drives forking executions. It is not safe for concurrent use:
// one engine explores one race's paths on one goroutine.
type Engine struct {
	Solver *solver.Solver

	// MaxForks bounds the total number of sibling states produced by this
	// engine across all RunForking calls (the paper's knob on the number
	// of paths explored, §3.3).
	MaxForks  int
	forksLeft int

	// branches counts symbolic branch decisions encountered; it is the
	// "# dependent branches" axis of Fig 9.
	branches int
}

// NewEngine returns an engine with the given solver and fork budget.
func NewEngine(s *solver.Solver, maxForks int) *Engine {
	if maxForks <= 0 {
		maxForks = 64
	}
	return &Engine{Solver: s, MaxForks: maxForks, forksLeft: maxForks}
}

// ForksLeft returns the remaining fork budget.
func (e *Engine) ForksLeft() int { return e.forksLeft }

// Seed pre-charges a fresh engine with exploration a resumed mainline's
// skipped prefix already performed: branch decisions counted and
// fork-budget slots consumed. An exploration resumed from a symbolic
// checkpoint must seed its engine with the checkpoint's counters, or the
// continuation could fork more siblings (and report fewer dependent
// branches) than the same exploration started from the root — and fork-
// cap-bound verdicts would depend on whether a checkpoint was available.
func (e *Engine) Seed(branches, forksUsed int) {
	if branches > 0 {
		e.branches += branches
	}
	if forksUsed > 0 {
		e.forksLeft -= min(forksUsed, e.forksLeft)
	}
}

// Branches returns the number of symbolic branch decisions encountered
// so far across all RunForking calls.
func (e *Engine) Branches() int { return e.branches }

// forkCandidate inspects the instruction the current thread is about to
// execute and returns the (normalized, 0/1) branch condition if it is a
// symbolic fork point.
func forkCandidate(st *vm.State, tid int, in bytecode.Instr) (expr.Expr, bool) {
	th := st.Threads[tid]
	fr := th.Top()
	if fr == nil || len(fr.Stack) == 0 {
		return nil, false
	}
	top := fr.Stack[len(fr.Stack)-1]
	switch in.Op {
	case bytecode.JZ, bytecode.ASSERT:
		if !expr.IsConcrete(top) {
			return expr.NeZero(top), true
		}
	case bytecode.DIV, bytecode.MOD:
		if !expr.IsConcrete(top) {
			return expr.Ne(top, expr.NewConst(0)), true
		}
	}
	return nil, false
}

// RunForking runs m until it stops for a reason other than a symbolic
// branch. At each symbolic branch with a feasible unexplored side (and
// remaining fork budget), onFork is called with the sibling state, whose
// hints already steer it down the other side; the callback pairs it with a
// cloned controller and queues it. m.Break (the caller's breakpoint) is
// honored: RunForking composes it with the engine's own fork breakpoints
// and restores it on return.
func (e *Engine) RunForking(m *vm.Machine, budget int64, onFork func(sib *vm.State)) vm.RunResult {
	callerBreak := m.Break
	defer func() { m.Break = callerBreak }()

	for {
		var forkInstr bytecode.Instr
		sawFork := false
		m.Break = func(st *vm.State, tid int, pc bytecode.PCRef, in bytecode.Instr) bool {
			if _, ok := forkCandidate(st, tid, in); ok {
				forkInstr = in
				sawFork = true
				return true
			}
			if callerBreak != nil && callerBreak(st, tid, pc, in) {
				sawFork = false
				return true
			}
			return false
		}
		res := m.Run(budget)
		if res.Kind != vm.StopBreak || !sawFork {
			return res
		}
		budget -= res.Steps
		if budget <= 0 {
			return vm.RunResult{Kind: vm.StopBudget}
		}

		// We are parked just before a symbolic branch.
		st := m.St
		tid := st.Cur
		cond, ok := forkCandidate(st, tid, forkInstr)
		if ok {
			e.branches++
			taken, err := st.HintEval(cond)
			if err == nil && e.forksLeft > 0 && onFork != nil {
				neg := expr.LNot(cond)
				if taken == 0 {
					neg = cond
				}
				q := make([]expr.Expr, 0, len(st.PathCond)+1)
				q = append(q, st.PathCond...)
				q = append(q, neg)
				model, sat := e.Solver.Solve(q, st.Hints)
				if sat == solver.Sat {
					e.forksLeft--
					sib := st.Clone()
					for name, v := range model {
						sib.SetHint(name, v)
					}
					// Commit the sibling past the branch under its new
					// hints so it cannot re-fork the same point. A JZ is
					// not a scheduling point, so the controller is never
					// consulted during this single step.
					sm := vm.NewMachine(sib, vm.Sticky{})
					sm.Step()
					onFork(sib)
				}
			}
		}

		// Execute the branch instruction itself (the concolic policy
		// records the taken side's constraint), then resume running.
		m.Break = nil
		stepRes := m.Step()
		budget -= stepRes.Steps
		switch stepRes.Kind {
		case vm.StopBreak:
			// One instruction executed; keep going.
		default:
			// Finished, error (assert violation / div-by-zero on the
			// branch itself), deadlock, stuck, or budget: surface it.
			return stepRes
		}
	}
}
