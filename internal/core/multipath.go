package core

import (
	"repro/internal/explore"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vm"
)

// primaryPath is one completed primary execution discovered by multi-path
// exploration: the final state (with symbolic outputs and the path
// condition), the pre-race checkpoint, and the racing threads observed on
// this path.
type primaryPath struct {
	st                  *vm.State
	pre                 *vm.State
	firstTID, secondTID int
	result              vm.RunResult
}

// pathItem is one worklist entry during exploration.
type pathItem struct {
	st  *vm.State
	ctl vm.Controller

	pre     *vm.State
	preTID  int
	raceHit bool

	firstTID, secondTID int

	// skipped is the prefix length a checkpoint resume skipped; it is
	// charged against the item's first execution segment so a budget-
	// bound exploration stops at the same instruction it would have when
	// started from the root. Siblings forked before the charge is
	// consumed inherit it — a fork must not escape a charge its parent
	// still owed.
	skipped int64

	// mainline marks the exploration item that still follows the
	// recorded schedule from the root (or a resumed snapshot of it); the
	// static dead-item prune exempts it.
	mainline bool
}

func cloneCtl(c vm.Controller) vm.Controller {
	if cc, ok := c.(vm.CloneableController); ok {
		return cc.CloneCtl()
	}
	return c
}

func replayerDiverged(c vm.Controller) bool {
	if r, ok := c.(*trace.Replayer); ok {
		return r.Diverged
	}
	return false
}

// mpResult is the outcome of the multi-path multi-schedule phase.
type mpResult struct {
	class       Class
	consequence Consequence
	detail      string
	outDiff     *OutputDivergence
	k           int
	branches    int
	primaries   int
	alternates  int
	truncated   int
}

// multipathRoot builds the mainline item of one race's multi-path
// exploration: the symbolic execution that follows the recorded schedule.
// It resumes from the run's replay checkpoint store when the skipped
// prefix (a) never touched the racy object and (b) consumed no input or
// argument reads that symbolic execution would have made symbolic, so
// re-arming the symbolic sources on the resumed state reproduces the
// root-started execution bit for bit; otherwise it replays symbolically
// from the root.
func (c *Classifier) multipathRoot(rep *race.Report, tr *trace.Trace) *pathItem {
	limit := rep.First.Global
	if store := c.store.storeFor(tr); store != nil && limit > 0 {
		accept := func(st *vm.State) bool {
			ac := findAccessCounter(st)
			if ac == nil || ac.touchedObj(rep.Key.Space, rep.Key.Obj) {
				return false
			}
			if c.Opts.SymbolicInputs > 0 && st.In.Pos > 0 {
				return false
			}
			if len(c.Opts.SymbolicArgs) > 0 && st.ArgReads > 0 {
				return false
			}
			return true
		}
		if e, steps, ok := store.Resume(limit, accept); ok {
			st, ctl := e.State, e.Ctl
			c.ckptHits++
			dropAccessCounter(st)
			// Re-arm the symbolic sources exactly as newRootState does;
			// the accepted prefix consumed none of them.
			st.In.NSymbolic = c.Opts.SymbolicInputs
			for _, i := range c.Opts.SymbolicArgs {
				st.MarkSymArg(i)
			}
			return &pathItem{st: st, ctl: ctl, skipped: steps, mainline: true}
		}
	}
	return &pathItem{
		st: c.newRootState(tr, true), ctl: trace.NewReplayer(tr, vm.NewRoundRobin()), mainline: true,
	}
}

// collectPrimaries explores up to Mp primary paths that (a) follow the
// recorded thread schedule up to the data race and (b) experience the
// target race (§3.3): inputs are symbolic, paths that diverge from the
// schedule before the race are pruned (Fig 5), and divergence is
// tolerated after the second racing access.
//
// The exploration is bounded twice: the pending-sibling queue holds at
// most Opts.MaxQueuedForks forks, and at most Opts.MaxPathItems worklist
// items are processed. Work the caps discard is counted and returned as
// truncated so verdicts can disclose that their coverage was clipped,
// instead of silently overstating k.
func (c *Classifier) collectPrimaries(rep *race.Report, tr *trace.Trace, eng *explore.Engine) (prims []*primaryPath, truncated int) {
	space, obj := rep.Key.Space, rep.Key.Obj
	firstLine := rep.First.PC.Line

	work := []*pathItem{c.multipathRoot(rep, tr)}
	maxQueue := c.Opts.MaxQueuedForks
	maxItems := c.Opts.MaxPathItems
	dropped := 0
	processed := 0
	for len(work) > 0 && len(prims) < c.Opts.Mp && processed < maxItems && c.canceled() == nil {
		processed++
		it := work[0]
		work = work[1:]

		// Static dead-item prune: if no live frame of any thread can —
		// per the static reach facts — access the racy object class or
		// reach a fork point with a possibly-symbolic operand, running
		// this item is provably inert: the racy-access breakpoint never
		// fires (so it cannot hit the race or become a primary), the
		// engine never forks (so the queue, the fork budget, and the
		// branch count are untouched), and a non-race completion is
		// discarded below without recording anything. Skipping it changes
		// work counters only, never the verdict. The mainline is exempt —
		// it carries the recorded schedule to the race by construction.
		if !it.mainline && !it.raceHit && c.staticDead(it.st, space, obj) {
			c.prunedSchedules++
			continue
		}
		c.pathItemsRun++

		m := c.newMachine(it.st, it.ctl)
		onFork := func(sib *vm.State) {
			if len(work) >= maxQueue {
				dropped++
				return
			}
			work = append(work, &pathItem{
				st: sib, ctl: cloneCtl(it.ctl),
				pre: it.pre, preTID: it.preTID, raceHit: it.raceHit,
				firstTID: it.firstTID, secondTID: it.secondTID,
				// Forward any still-uncharged skipped prefix. With the
				// current call sites this forwards 0 — every RunForking
				// budget goes through segBudget(), which consumes the
				// charge before a fork can fire — but the invariant ("no
				// item escapes its parent's undischarged budget charge")
				// is kept local here instead of depending on that
				// call-site discipline. A sibling must never carry a
				// charge its root-started twin would not: fork states are
				// step-identical between resumed and root-started runs,
				// so only a genuinely unconsumed charge may propagate.
				skipped: it.skipped,
			})
		}
		segBudget := func() int64 {
			b := c.Opts.RunBudget
			if it.skipped > 0 && b >= 0 {
				if b -= it.skipped; b < 0 {
					b = 0
				}
				it.skipped = 0
			}
			return b
		}

		pruned := false
		var res vm.RunResult
		// Stop at any access to the racy object: the first access is
		// matched strictly by its recorded source line, but the second may
		// occur at a different program counter on other paths — the
		// divergence tolerance that makes Fig 4's overflow reachable
		// ("cases in which the second racing access occurs at a different
		// program counter", §3.3).
		m.Stop = vm.Stop{On: vm.AtObject, TID: -1, Space: space, Obj: obj}
		for !it.raceHit {
			res = eng.RunForking(m, segBudget(), onFork)
			if res.Kind != vm.StopBreak {
				break // completed (or failed) without hitting the race
			}
			if replayerDiverged(it.ctl) {
				// The path broke the recorded schedule before the race:
				// prune it (Fig 5).
				pruned = true
				break
			}
			tid := it.st.Cur
			line := currentLine(it.st)
			switch {
			case it.pre != nil && tid != it.preTID:
				// The race point: this path experiences the target race.
				it.raceHit = true
				it.firstTID = it.preTID
				it.secondTID = tid
				m.Step() // complete the second racing access
			case line == firstLine:
				// (Re-)checkpoint before the most recent first access.
				it.pre = it.st.Clone()
				it.preTID = tid
				m.Step()
			default:
				m.Step()
			}
		}
		if pruned || !it.raceHit {
			continue
		}
		// Post-race: run to completion (also for forked siblings that
		// inherited the race point); forks from here are additional
		// primaries sharing this pre-race checkpoint.
		switch {
		case it.st.Failure != nil:
			res = vm.RunResult{Kind: vm.StopError, Err: it.st.Failure}
		case it.st.Finished():
			res = vm.RunResult{Kind: vm.StopFinished}
		default:
			m.Stop = vm.Stop{}
			// segBudget, not the raw RunBudget: should an item ever reach
			// this segment without its race-hit loop having run (inherited
			// race hit plus a forwarded charge), the skipped prefix is
			// still discharged exactly once.
			res = eng.RunForking(m, segBudget(), onFork)
		}
		prims = append(prims, &primaryPath{
			st: it.st, pre: it.pre,
			firstTID: it.firstTID, secondTID: it.secondTID,
			result: res,
		})
	}
	truncated = dropped
	if len(work) > 0 && len(prims) < c.Opts.Mp && c.canceled() == nil {
		// The loop ended on the item cap with pending work and fewer
		// primaries than requested: the abandoned items are coverage the
		// verdict claims but never examined.
		truncated += len(work)
	}
	return prims, truncated
}

// staticDead reports whether the static facts prove that no thread of st
// can ever access the racy object class again nor reach a fork point with
// a possibly-symbolic operand. Frame PCs are resume points (the caller's
// PC already sits past its CALL), which is exactly the per-pc reach
// granularity internal/sa computes; a frame parked at pc == len(code) has
// an empty reach set. Answers degrade safely: no facts or out-of-range
// coordinates report "may".
func (c *Classifier) staticDead(st *vm.State, space vm.Space, obj int64) bool {
	f := c.Opts.StaticFacts
	if f == nil || c.Opts.NoStaticPrune {
		return false
	}
	for _, th := range st.Threads {
		for _, fr := range th.Frames {
			if f.FrameMayFork(fr.Fn, fr.PC) {
				return false
			}
			if space == vm.SpaceGlobal {
				if f.FrameMayTouchGlobal(fr.Fn, fr.PC, int(obj)) {
					return false
				}
			} else if f.FrameMayTouchHeap(fr.Fn, fr.PC) {
				return false
			}
		}
	}
	return true
}

func currentLine(st *vm.State) int32 {
	th := st.Threads[st.Cur]
	fr := th.Top()
	if fr == nil {
		return -1
	}
	code := st.Prog.Funcs[fr.Fn].Code
	if fr.PC >= len(code) {
		return -1
	}
	return code[fr.PC].Line
}

// altEval is the outcome of one alternate execution, reduced to exactly
// what the verdict merge needs. Evaluating an alternate is free of
// side effects on the classifier (the solver only accumulates atomic
// statistics), which is what lets the worklist fan out across workers.
type altEval struct {
	outcome enforceOutcome
	errText string // enfError: the runtime error message

	// Spec violation observed on the completed alternate (enfOK).
	bad    bool
	cons   Consequence
	detail string

	// Output divergence against the primary (enfOK, nil when matching).
	diff *OutputDivergence
}

// evalAlternate runs alternate j of primary pi to completion and
// compares its outputs against the primary's (§3.3.1, §3.4). It is
// safe to call concurrently for distinct (pi, j) pairs: it only reads
// the shared primaryPath and clones its pre-race checkpoint.
func (c *Classifier) evalAlternate(p *primaryPath, pi, j int, space vm.Space, obj int64) altEval {
	if c.canceled() != nil {
		// The outcome is discarded by ClassifyCtx's post-analysis cancel
		// check; enfTimeout merely keeps the merge loop's bookkeeping
		// neutral (no witness, no class change) until it unwinds.
		return altEval{outcome: enfTimeout}
	}
	var ctl vm.Controller = vm.NewRoundRobin()
	if c.Opts.MultiSchedule {
		ctl = vm.NewRandom(altSeed(c.Opts.Seed, pi, j))
	}
	pre := p.pre.Clone()
	// Alternate executions are fully concrete (§3.3.1): bind every
	// symbol to the path's witness values.
	pre.Concretize(p.st.Hints)
	enf := c.enforceAlternate(pre, nil, p.firstTID, p.secondTID, space, obj, ctl)
	ev := altEval{outcome: enf.outcome}
	switch enf.outcome {
	case enfError:
		ev.errText = enf.err.Error()
	case enfOK:
		if cons, det, bad := specViolationOf(enf.final, enf.st); bad {
			ev.bad, ev.cons, ev.detail = true, cons, det
			break
		}
		if c.Opts.SymbolicOutput {
			ev.diff = c.symbolicOutputDiff(p.st, enf.st.Outputs)
		} else {
			ev.diff = concreteOutputDiff(concretizeOutputs(p.st), enf.st.Outputs)
		}
	}
	return ev
}

// multiPath is Algorithm 2 combined with multi-schedule analysis (§3.4):
// for each primary path, produce alternates (randomly scheduled when
// multi-schedule is enabled) and compare their concrete outputs against
// the primary's symbolic outputs.
//
// The primary×alternate worklist is evaluated either on demand in
// worklist order (sequential mode) or eagerly across the worker pool
// (parallel mode). Either way the verdict merge below consumes the
// evaluations in (primary, alternate) order and stops at the first
// conclusive one, so the resulting verdict — class, evidence, and the
// witness count — does not depend on the pool width. Parallel mode may
// evaluate alternates the sequential engine would have skipped after an
// early conclusive answer; that speculative work only shows up in the
// solver-query statistics, never in the verdict.
func (c *Classifier) multiPath(rep *race.Report, tr *trace.Trace) *mpResult {
	eng := explore.NewEngine(c.sol, c.Opts.MaxForks)
	prims, truncated := c.collectPrimaries(rep, tr, eng)

	out := &mpResult{class: KWitnessHarmless, branches: eng.Branches(), primaries: len(prims), truncated: truncated}
	if len(prims) == 0 {
		out.k = 1 // only the single-pre/single-post witness
		return out
	}

	space, obj := rep.Key.Space, rep.Key.Obj
	nAlt := 1
	if c.Opts.MultiSchedule {
		nAlt = c.Opts.Ma
	}

	get := func(pi, j int) altEval { return c.evalAlternate(prims[pi], pi, j, space, obj) }
	if workers := sched.Workers(c.Opts.Parallel); workers > 1 && len(prims)*nAlt > 1 {
		// The merge below inspects primary pi before any of its
		// alternates, and a conclusive primary ends the analysis — so
		// alternates past the first violating primary can never be
		// consulted. Checking the (cheap, pure) primary results up
		// front bounds the eager fan-out to the alternates the
		// sequential engine could actually reach.
		reachable := len(prims)
		for pi, p := range prims {
			if _, _, bad := specViolationOf(p.result, p.st); bad {
				reachable = pi
				break
			}
		}
		evals := make([]altEval, reachable*nAlt)
		sched.Map(workers, len(evals), func(i int) {
			evals[i] = c.evalAlternate(prims[i/nAlt], i/nAlt, i%nAlt, space, obj)
		})
		get = func(pi, j int) altEval { return evals[pi*nAlt+j] }
	}

	witnesses := 0
	for pi, p := range prims {
		if c.canceled() != nil {
			break
		}
		// A primary path itself may expose a violation (e.g. the Fig 4
		// overflow happens on the primary of another input).
		if cons, det, bad := specViolationOf(p.result, p.st); bad {
			out.class, out.consequence, out.detail = SpecViolated, cons, "primary path: "+det
			out.alternates = witnesses
			return out
		}

		for j := 0; j < nAlt; j++ {
			ev := get(pi, j)
			switch ev.outcome {
			case enfError:
				out.class, out.consequence, out.detail = SpecViolated, ConsCrash, "alternate: "+ev.errText
				out.alternates = witnesses
				return out
			case enfOK:
				if ev.bad {
					out.class, out.consequence, out.detail = SpecViolated, ev.cons, "alternate: "+ev.detail
					out.alternates = witnesses
					return out
				}
				if ev.diff != nil {
					out.class = OutputDiffers
					out.outDiff = ev.diff
					out.alternates = witnesses
					return out
				}
				witnesses++
			default:
				// Enforcement failed on this derived path; it contributes
				// no witness but does not change the class (the original
				// path already proved the alternate ordering feasible).
			}
		}
	}
	out.k = witnesses
	out.alternates = witnesses
	return out
}

// altSeed derives the RNG seed for alternate schedule j of primary pi by
// chaining the SplitMix64 finalizer (mix64, a bijection on uint64) over
// (Seed, pi, j). The previous linear form (Seed + 131·pi + 17·j + 1)
// collided for every pair of (pi, j) points differing by a multiple of
// (+17, −131) — two distinct alternates would silently run the same
// schedule, shrinking the real k below what the verdict claimed. With
// the bijective chain, a collision would require mix64(h⊕(pi+1)) and
// mix64(h⊕(pi′+1)) to land exactly (j+1)⊕(j′+1) apart, which no
// realistic Mp×Ma grid produces.
func altSeed(seed uint64, pi, j int) uint64 {
	h := mix64(seed)
	h = mix64(h ^ uint64(pi+1))
	h = mix64(h ^ uint64(j+1))
	return h
}

// mix64 is the SplitMix64 finalizer. Every step (odd-constant add,
// xor-shift, odd-constant multiply) is a bijection on uint64, so the
// whole function is one too: distinct single-word inputs never collide.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
