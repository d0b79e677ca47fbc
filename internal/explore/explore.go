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
// resumes, and the VM, which follows the hints, records the matching path
// constraint. This reproduces KLEE-style state forking on top of a plain
// concolic interpreter.
package explore

import (
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/vm"
)

// Engine drives forking executions. It is not safe for concurrent use:
// one engine explores one race's paths on one goroutine.
type Engine struct {
	Solver *solver.Solver

	// forksLeft is the remaining budget of sibling states this engine may
	// produce across all RunForking calls (the paper's knob on the number
	// of paths explored, §3.3).
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
	return &Engine{Solver: s, forksLeft: maxForks}
}

// Branches returns the number of symbolic branch decisions encountered
// so far across all RunForking calls.
func (e *Engine) Branches() int { return e.branches }

// RunForking runs m until it stops for a reason other than a symbolic
// branch. At each symbolic branch with a feasible unexplored side (and
// remaining fork budget), onFork is called with the sibling state, whose
// hints already steer it down the other side; the callback pairs it with a
// cloned controller and queues it. RunForking adds vm.AtFork to m.Stop,
// which keeps it: the caller's own conditions still end the run.
func (e *Engine) RunForking(m *vm.Machine, budget int64, onFork func(sib *vm.State)) vm.RunResult {
	m.Stop.On |= vm.AtFork
	for {
		res := m.Run(budget)
		if res.Kind != vm.StopBreak {
			return res
		}
		// Parked just before a symbolic branch, or at the caller's stop.
		cond := m.ForkCond()
		if cond == nil {
			return res
		}
		budget -= res.Steps
		if budget <= 0 {
			return vm.RunResult{Kind: vm.StopBudget}
		}

		st := m.St
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

		// Execute the branch instruction itself (the VM follows the hints and
		// records the taken side's constraint), then resume running.
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
