package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/race"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Classifier analyzes race reports against a program. It is the
// "Analysis & Classification Engine" box of Fig 2.
type Classifier struct {
	Prog *bytecode.Program
	Opts Options
	sol  *solver.Solver

	// shared is the run-wide reuse machinery (replay checkpoint store,
	// solver memo); nil when Options.NoCache disabled it. ckptHits counts
	// this classifier's replays and multi-path explorations that resumed
	// from the checkpoint store; it is only touched from the goroutine
	// driving ClassifyCtx.
	shared   *sharedCaches
	ckptHits int

	// prunedSchedules counts worklist items the static dead-item prune
	// skipped; pathItemsRun counts items that executed. Both are only
	// touched from the goroutine driving ClassifyCtx.
	prunedSchedules int
	pathItemsRun    int

	// vmCounters aggregates interpreter fast-path tallies (fused
	// superinstructions, interned constants) across every machine this
	// classification creates, including the parallel alternate workers.
	vmCounters vm.Counters

	// ctx/interrupt carry ClassifyCtx's cancellation to every machine,
	// exploration loop, and solver query the classification spawns.
	// They are set once per ClassifyCtx call, before any concurrent
	// phase starts, and are read-only afterwards.
	ctx       context.Context
	interrupt func() bool
}

// canceled returns the classification context's error, if any.
func (c *Classifier) canceled() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// newMachine builds a machine wired to the classification's cancellation
// and fast-path accounting.
func (c *Classifier) newMachine(st *vm.State, ctl vm.Controller) *vm.Machine {
	m := vm.NewMachine(st, ctl)
	m.Interrupt = c.interrupt
	m.Counters = &c.vmCounters
	// The state (and every state cloned from it) meters its Clone costs
	// into the same counters, so Stats.CloneAllocs/CloneBytes cover the
	// checkpoint deposits and forks this classification performs.
	st.SetCounters(&c.vmCounters)
	return m
}

// New returns a classifier; zero fields of opts fall back to defaults.
// A Seed of 0 is treated as "unset" only when opts.SeedSet is false —
// callers that mark the seed explicit can pin seed 0 and have it
// round-trip unchanged.
func New(prog *bytecode.Program, opts Options) *Classifier {
	d := DefaultOptions()
	if opts.Mp <= 0 {
		opts.Mp = d.Mp
	}
	if opts.Ma <= 0 {
		opts.Ma = d.Ma
	}
	if opts.EnforceBudget <= 0 {
		opts.EnforceBudget = d.EnforceBudget
	}
	if opts.RunBudget <= 0 {
		opts.RunBudget = d.RunBudget
	}
	if opts.MaxForks <= 0 {
		opts.MaxForks = d.MaxForks
	}
	if opts.MaxQueuedForks <= 0 {
		opts.MaxQueuedForks = d.MaxQueuedForks
	}
	if opts.MaxPathItems <= 0 {
		opts.MaxPathItems = 4*opts.Mp + 32
	}
	if opts.Seed == 0 && !opts.SeedSet {
		opts.Seed = d.Seed
	}
	shared := opts.shared
	if shared == nil && !opts.NoCache {
		if opts.Tier != nil {
			opts.Tier.bindPredicates(opts.Predicates)
			shared = opts.Tier.shared
		} else {
			shared = newSharedCaches()
		}
	}
	sol := solver.New(opts.Solver)
	sol.Cache = shared.solverCache()
	return &Classifier{Prog: prog, Opts: opts, sol: sol, shared: shared}
}

// Classify runs the full Portend analysis on one race report: replay,
// single-pre/single-post (Algorithm 1), and — when the single analysis is
// inconclusive ("outSame") — multi-path multi-schedule analysis with
// symbolic output comparison (Algorithm 2).
func (c *Classifier) Classify(rep *race.Report, tr *trace.Trace) (*Verdict, error) {
	return c.ClassifyCtx(context.Background(), rep, tr)
}

// ClassifyCtx is Classify with cancellation: an already-cancelled ctx
// returns immediately, and a cancel or deadline mid-analysis interrupts
// the replay machines, the multi-path worklist, and the solver, returning
// ctx's error. A verdict is returned only when the analysis ran to
// completion — never a partially analyzed (and thus unreliable) class.
func (c *Classifier) ClassifyCtx(cctx context.Context, rep *race.Report, tr *trace.Trace) (*Verdict, error) {
	// Rebind (or clear) the hooks on every call: a Classifier reused
	// after a cancellable-ctx call must not keep polling the old one.
	c.ctx = cctx
	c.interrupt = nil
	if cctx.Done() != nil {
		c.interrupt = func() bool { return cctx.Err() != nil }
	}
	c.sol.Interrupt = c.interrupt
	if err := c.canceled(); err != nil {
		return nil, err
	}

	start := time.Now()
	snap := c.snapStats()
	v := &Verdict{Race: rep, K: 1}
	v.Stats.Preemptions = len(tr.Decisions)

	ctx, err := c.replayToRace(rep, tr)
	if err != nil {
		return nil, err
	}

	a := c.singleClassify(ctx)
	if err := c.canceled(); err != nil {
		return nil, err
	}
	v.StatesDiffer = a.statesDiffer
	if !a.outSame {
		v.Class = a.class
		v.Consequence = a.consequence
		v.Detail = a.detail
		v.OutputDiff = a.outDiff
		c.finishStats(v, nil, snap, start)
		return v, nil
	}

	if !c.Opts.MultiPath {
		// Single-path mode: the only evidence is the one alternate that
		// matched — a 1-witness harmless verdict.
		v.Class = KWitnessHarmless
		v.K = 1
		c.finishStats(v, nil, snap, start)
		return v, nil
	}

	mp := c.multiPath(rep, tr)
	if err := c.canceled(); err != nil {
		return nil, err
	}
	v.Class = mp.class
	v.Consequence = mp.consequence
	v.Detail = mp.detail
	v.OutputDiff = mp.outDiff
	if v.Class == KWitnessHarmless {
		v.K = mp.k
		if v.K < 1 {
			v.K = 1
		}
	}
	c.finishStats(v, mp, snap, start)
	return v, nil
}

// statsSnap is the counter baseline taken at the start of one
// classification; finishStats turns it into per-race deltas.
type statsSnap struct {
	queries, cacheHits, ckptHits, evictions int
	prunedSchedules, pathItemsRun           int
	fused, interned, skipped                int64
	cloneAllocs, cloneBytes                 int64
}

func (c *Classifier) snapStats() statsSnap {
	s := statsSnap{
		queries:         c.sol.Queries(),
		cacheHits:       c.sol.CacheHits(),
		ckptHits:        c.ckptHits,
		prunedSchedules: c.prunedSchedules,
		pathItemsRun:    c.pathItemsRun,
		fused:           c.vmCounters.FusedOps.Load(),
		interned:        c.vmCounters.InternedConsts.Load(),
		skipped:         c.vmCounters.SkippedSteps.Load(),
		cloneAllocs:     c.vmCounters.CloneAllocs.Load(),
		cloneBytes:      c.vmCounters.CloneBytes.Load(),
	}
	if c.sol.Cache != nil {
		s.evictions = c.sol.Cache.Evictions()
	}
	return s
}

func (c *Classifier) finishStats(v *Verdict, mp *mpResult, snap statsSnap, start time.Time) {
	v.Stats.SolverQueries = c.sol.Queries() - snap.queries
	v.Stats.SolverCacheHits = c.sol.CacheHits() - snap.cacheHits
	v.Stats.CheckpointHits = c.ckptHits - snap.ckptHits
	v.Stats.PrunedSchedules = c.prunedSchedules - snap.prunedSchedules
	v.Stats.PathItemsRun = c.pathItemsRun - snap.pathItemsRun
	v.Stats.FusedOps = c.vmCounters.FusedOps.Load() - snap.fused
	v.Stats.InternedConsts = c.vmCounters.InternedConsts.Load() - snap.interned
	v.Stats.SkippedSteps = c.vmCounters.SkippedSteps.Load() - snap.skipped
	v.Stats.CloneAllocs = c.vmCounters.CloneAllocs.Load() - snap.cloneAllocs
	v.Stats.CloneBytes = c.vmCounters.CloneBytes.Load() - snap.cloneBytes
	if c.sol.Cache != nil {
		v.Stats.SolverCacheEvictions = c.sol.Cache.Evictions() - snap.evictions
	}
	if mp != nil {
		v.Stats.Branches = mp.branches
		v.Stats.PrimaryPaths = mp.primaries
		v.Stats.Alternates = mp.alternates
		v.Stats.TruncatedPaths = mp.truncated
	}
	v.Stats.Duration = time.Since(start)
}

// pairCtx is the replayed primary: the machine parked immediately after
// the second racing access, the pre-race checkpoint, and the post-race
// memory fingerprint.
type pairCtx struct {
	m      *vm.Machine
	st     *vm.State
	pre    *vm.State
	postFP string

	firstTID, secondTID int
	space               vm.Space
	obj                 int64

	// spinRead: one of the racing accesses is a read executed many times
	// from the same source line during the primary (a busy-wait poll).
	// Reversing such a pair is vacuous — the loop re-reads the location
	// and re-establishes the ad-hoc protocol — so a matching-output
	// alternate does not prove the orderings interchangeable (§2.3
	// "single ordering", Fig 8d).
	spinRead bool
}

// spinReadThreshold: a racing read re-executed at least this many times
// from one line is considered a busy-wait poll. The counts come from the
// replay's accessCounter (internal/core/shared.go), which tracks reads
// for every object class at once so replay states are reusable across
// races.
const spinReadThreshold = 4

// newRootState builds the initial state for (re-)execution of the traced
// run, optionally with symbolic inputs, and attaches the predicate
// observer.
func (c *Classifier) newRootState(tr *trace.Trace, symbolic bool) *vm.State {
	st := vm.NewState(c.Prog, tr.Args, tr.Inputs)
	if symbolic {
		st.In.NSymbolic = c.Opts.SymbolicInputs
		for _, i := range c.Opts.SymbolicArgs {
			st.MarkSymArg(i)
		}
	}
	if len(c.Opts.Predicates) > 0 {
		st.Observers = append(st.Observers, &PredicateObserver{Preds: c.Opts.Predicates})
	}
	return st
}

// breakAtAccess stops when the given thread is about to execute the
// shared access identified by its per-thread instruction count.
func breakAtAccess(tid int, tInstr int64) vm.BreakFunc {
	return func(st *vm.State, cur int, pc bytecode.PCRef, in bytecode.Instr) bool {
		return cur == tid && st.Threads[cur].Instrs == tInstr && in.Op.IsSharedAccess()
	}
}

// accessToObj reports whether an instruction statically accesses the racy
// object class (global id, or any heap object for heap races).
func accessToObj(in bytecode.Instr, space vm.Space, obj int64) bool {
	switch in.Op {
	case bytecode.LOADG, bytecode.STOREG, bytecode.LOADE, bytecode.STOREE:
		return space == vm.SpaceGlobal && in.A == obj
	case bytecode.LOADH, bytecode.STOREH, bytecode.FREE:
		return space == vm.SpaceHeap
	}
	return false
}

// replayToRace replays the trace concretely up to just past the second
// racing access, checkpointing just before the first (§3.2, Algorithm 1
// lines 1–4).
//
// The replay resumes from the shared checkpoint store when a snapshot at
// or before the first racing access exists (any snapshot qualifies:
// entries lie on the recorded replay path and carry the full observer
// state of their prefix), and it deposits a snapshot of its own pre-race
// point for later races to resume from. The run budget is charged for
// the skipped prefix, so a budget-bound replay stops at exactly the same
// instruction it would have from the root.
func (c *Classifier) replayToRace(rep *race.Report, tr *trace.Trace) (*pairCtx, error) {
	var (
		st     *vm.State
		ctl    vm.Controller
		budget = c.Opts.RunBudget
	)
	store := c.shared.storeFor(tr)
	if store != nil && rep.First.Global > 0 {
		if e, steps, ok := store.Resume(rep.First.Global, nil); ok {
			st, ctl = e.State, e.Ctl
			c.ckptHits++
			if budget >= 0 {
				if budget -= steps; budget < 0 {
					budget = 0
				}
			}
		}
	}
	if st == nil {
		st = c.newRootState(tr, false)
		st.Observers = append(st.Observers, newAccessCounter())
		ctl = trace.NewReplayer(tr, vm.NewRoundRobin())
	}
	rc := findAccessCounter(st)
	m := c.newMachine(st, ctl)

	m.Break = breakAtAccess(rep.First.TID, rep.First.TInstr)
	res := m.Run(budget)
	if res.Kind != vm.StopBreak {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("portend: replay did not reach first racing access of %s (%v)", rep.ID(), res.Kind)
	}
	if store != nil {
		store.Add(ckpt.Entry{State: st, Ctl: ctl})
	}
	pre := st.Clone()
	dropAccessCounter(pre) // enforcement clones need no counting

	m.Break = breakAtAccess(rep.Second.TID, rep.Second.TInstr)
	res = m.Run(c.Opts.RunBudget)
	if res.Kind != vm.StopBreak {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("portend: replay did not reach second racing access of %s (%v)", rep.ID(), res.Kind)
	}
	m.Break = nil
	m.Step() // complete the second racing access: the post-race state

	ctx := &pairCtx{
		m: m, st: st, pre: pre,
		postFP:   st.SharedMemoryFingerprint(),
		firstTID: rep.First.TID, secondTID: rep.Second.TID,
		space: rep.Key.Space, obj: rep.Key.Obj,
	}
	for _, acc := range []race.Access{rep.First, rep.Second} {
		if !acc.Write && rc != nil && rc.readsAt(rep.Key.Space, rep.Key.Obj, acc.TID, acc.PC.Line) >= spinReadThreshold {
			ctx.spinRead = true
		}
	}
	dropAccessCounter(st) // nothing reads counts past this point
	return ctx, nil
}

// enforceOutcome says how the alternate-ordering attempt ended.
type enforceOutcome uint8

const (
	enfOK       enforceOutcome = iota // enforced and ran to completion
	enfTimeout                        // budget exhausted (paper case (a))
	enfStuck                          // only suspended threads runnable (case (b))
	enfNoAccess                       // finished without the second access
	enfError                          // runtime error while enforcing
)

// enforceResult is the outcome of one alternate execution.
type enforceResult struct {
	outcome        enforceOutcome
	st             *vm.State
	afterFP        string       // memory right after the reversed accesses
	final          vm.RunResult // completion result (enfOK)
	diag           vm.SpinDiagnosis
	err            *vm.RuntimeError
	blockedOnFirst bool // some thread waits on a resource the suspended thread holds
}

// enforceAlternate reverses the racing accesses: starting from the
// pre-race checkpoint (which must be concrete), it suspends the thread
// that originally accessed first, drives the other thread to its racing
// access, completes both accesses in reversed order, and runs the
// alternate to completion (§3.2).
func (c *Classifier) enforceAlternate(pre *vm.State, firstTID, secondTID int, space vm.Space, obj int64, ctl vm.Controller) enforceResult {
	alt := pre.Clone()
	alt.Suspend(firstTID)
	m := c.newMachine(alt, ctl)
	m.SpinTrack = true
	m.Break = func(st *vm.State, cur int, pc bytecode.PCRef, in bytecode.Instr) bool {
		return cur == secondTID && accessToObj(in, space, obj)
	}
	res := m.Run(c.Opts.EnforceBudget)
	switch res.Kind {
	case vm.StopBreak:
		// fall through to enforcement below
	case vm.StopBudget:
		d := m.DiagnoseSpin(secondTID)
		if !d.Looping {
			for _, th := range alt.Threads {
				if th.Status == vm.ThRunnable && !alt.IsSuspended(th.ID) {
					if d2 := m.DiagnoseSpin(th.ID); d2.Looping {
						d = d2
						break
					}
				}
			}
		}
		return enforceResult{outcome: enfTimeout, st: alt, diag: d}
	case vm.StopStuck, vm.StopDeadlock:
		r := enforceResult{outcome: enfStuck, st: alt}
		for _, th := range alt.Threads {
			if th.Status == vm.ThBlockedMutex && th.WaitMutex >= 0 &&
				alt.Mutexes[th.WaitMutex].Owner == firstTID {
				r.blockedOnFirst = true
			}
			if th.Status == vm.ThBlockedJoin && th.WaitJoin == firstTID {
				r.blockedOnFirst = true
			}
		}
		return r
	case vm.StopError:
		return enforceResult{outcome: enfError, st: alt, err: res.Err}
	default: // StopFinished: the access never happened in this ordering
		return enforceResult{outcome: enfNoAccess, st: alt, final: res}
	}

	// Parked just before the second thread's racing access. Complete it,
	// then let the suspended thread immediately complete its pending
	// access: the reversed pair, back to back.
	m.Break = nil
	if r := m.Step(); r.Kind == vm.StopError {
		return enforceResult{outcome: enfError, st: alt, err: r.Err}
	}
	alt.Resume(firstTID)
	alt.Cur = firstTID
	if r := m.Step(); r.Kind == vm.StopError {
		return enforceResult{outcome: enfError, st: alt, err: r.Err}
	}
	afterFP := alt.SharedMemoryFingerprint()
	m.SpinTrack = false // only a timeout reads the spin data; fuse the completion
	final := m.Run(c.Opts.RunBudget)
	return enforceResult{outcome: enfOK, st: alt, afterFP: afterFP, final: final}
}

// specViolationOf inspects a completed run for "basic" specification
// violations (§3.5): crashes and memory errors, deadlocks, budget
// exhaustion (hangs), assertion failures, and semantic predicate
// violations caught by the observer.
func specViolationOf(res vm.RunResult, st *vm.State) (Consequence, string, bool) {
	switch res.Kind {
	case vm.StopError:
		if res.Err != nil && res.Err.Kind == vm.ErrAssert {
			return ConsSemantic, res.Err.Error(), true
		}
		detail := "runtime error"
		if res.Err != nil {
			detail = res.Err.Error()
		}
		return ConsCrash, detail, true
	case vm.StopDeadlock:
		return ConsDeadlock, "all threads blocked", true
	case vm.StopBudget:
		return ConsHang, "execution did not terminate within budget", true
	}
	if po := findPredicateObserver(st); po != nil && po.Violation != "" {
		return ConsSemantic, "predicate violated: " + po.Violation, true
	}
	return ConsNone, "", false
}

// pairAnalysis is the result of Algorithm 1.
type pairAnalysis struct {
	class        Class
	outSame      bool
	consequence  Consequence
	detail       string
	statesDiffer bool
	outDiff      *OutputDivergence
}

// singleClassify is Algorithm 1: one primary, one enforced alternate,
// concrete output comparison.
func (c *Classifier) singleClassify(ctx *pairCtx) pairAnalysis {
	space, obj := ctx.raceObj()

	enf := c.enforceAlternate(ctx.pre, ctx.firstTID, ctx.secondTID, space, obj, vm.NewRoundRobin())

	// Primary continuation (replaying the rest of the input trace).
	primRes := ctx.m.Run(c.Opts.RunBudget)

	switch enf.outcome {
	case enfError:
		return pairAnalysis{class: SpecViolated, consequence: ConsCrash, detail: "alternate: " + enf.err.Error()}

	case enfTimeout:
		if !c.Opts.AdHocDetection {
			// Without ad-hoc synchronization detection (Fig 7's
			// "single-path" baseline) an unenforceable alternate is
			// conservatively treated as harmful, like the
			// Record/Replay-Analyzer does on replay failure.
			return pairAnalysis{class: SpecViolated, consequence: ConsHang, detail: "alternate ordering could not be enforced (timeout)"}
		}
		if enf.diag.Looping && !enf.diag.WritableByOther {
			// Loop with an exit condition no live thread can change: an
			// infinite loop (Algorithm 1 line 10).
			return pairAnalysis{class: SpecViolated, consequence: ConsHang, detail: "infinite loop: loop exit condition cannot be modified"}
		}
		// Busy-wait on a shared flag another thread writes: ad-hoc
		// synchronization (Algorithm 1 line 12).
		return pairAnalysis{class: SingleOrdering, detail: "ad-hoc synchronization prevents the alternate ordering"}

	case enfStuck:
		if enf.blockedOnFirst {
			// Case (b): the second thread is blocked by the first —
			// deadlock per the lock graph (Algorithm 1 line 15).
			return pairAnalysis{class: SpecViolated, consequence: ConsDeadlock, detail: "alternate ordering deadlocks: second thread blocked by first"}
		}
		if !c.Opts.AdHocDetection {
			return pairAnalysis{class: SpecViolated, consequence: ConsHang, detail: "alternate ordering could not be enforced (stuck)"}
		}
		return pairAnalysis{class: SingleOrdering, detail: "alternate ordering not schedulable"}

	case enfNoAccess:
		if !c.Opts.AdHocDetection {
			return pairAnalysis{class: SpecViolated, consequence: ConsHang, detail: "alternate ordering could not be enforced (no access)"}
		}
		return pairAnalysis{class: SingleOrdering, detail: "second access does not occur under the alternate ordering"}
	}

	// Enforced: compare post-race states (the baseline criterion) and
	// watch both executions for specification violations.
	a := pairAnalysis{statesDiffer: enf.afterFP != ctx.postFP}

	if cons, det, bad := specViolationOf(enf.final, enf.st); bad {
		a.class, a.consequence, a.detail = SpecViolated, cons, "alternate: "+det
		return a
	}
	if cons, det, bad := specViolationOf(primRes, ctx.st); bad {
		a.class, a.consequence, a.detail = SpecViolated, cons, "primary: "+det
		return a
	}

	if diff := concreteOutputDiff(ctx.st.Outputs, enf.st.Outputs); diff != nil {
		a.class = OutputDiffers
		a.outDiff = diff
		return a
	}
	if ctx.spinRead && c.Opts.AdHocDetection {
		// One side of the race is a busy-wait poll read: the loop
		// re-reads the location after the reversed pair and re-establishes
		// the ad-hoc protocol, so the matching outputs do not evidence a
		// second genuine ordering — the accesses are ordering-protected.
		a.class = SingleOrdering
		a.detail = "racing read is a busy-wait poll (ad-hoc synchronization)"
		return a
	}
	a.outSame = true
	a.class = KWitnessHarmless
	return a
}

// raceObj extracts the racy object class from the report backing the ctx.
func (ctx *pairCtx) raceObj() (vm.Space, int64) {
	return ctx.space, ctx.obj
}
