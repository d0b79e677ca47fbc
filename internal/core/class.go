// Package core implements Portend's analysis and classification engine —
// the paper's primary contribution (§3).
//
// Given a data race report (internal/race) and the schedule trace of the
// execution that exposed it (internal/trace), the classifier predicts the
// race's consequences and places it in the four-category taxonomy of §2.3
// (Fig 1):
//
//	specViol   — an ordering violates the program's specification:
//	             crash, deadlock, infinite loop, memory error, or a
//	             semantic predicate supplied by the developer;
//	outDiff    — the orderings can produce different program output;
//	k-witness  — harmless for k = Mp×Ma path×schedule witnesses;
//	singleOrd  — only one ordering is possible (ad-hoc synchronization).
//
// The analysis proceeds exactly as in the paper: single-pre/single-post
// analysis (Algorithm 1) replays to the race, checkpoints, enforces the
// alternate ordering of the racing accesses and observes both executions;
// multi-path analysis (Algorithm 2) marks inputs symbolic and explores up
// to Mp primary paths that follow the recorded schedule to the race;
// multi-schedule analysis runs Ma randomized alternates per primary; and
// symbolic output comparison checks each alternate's concrete outputs
// against the primary's symbolic output constraints with the solver.
//
// The per-race analysis is embarrassingly parallel, and the engine
// exploits that at two levels (Options.Parallel): Run classifies
// distinct races on a worker pool, and within one race the
// primary×alternate worklist of the multi-path phase fans out across
// the same pool width. Results always merge in the sequential engine's
// order, so verdicts are byte-identical at every pool width.
package core

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/race"
	"repro/internal/sa"
	"repro/internal/solver"
	"repro/internal/vm"
)

// Class is the four-category race taxonomy of Fig 1.
type Class uint8

// Race classes.
const (
	// SpecViolated: at least one ordering violates the specification.
	SpecViolated Class = iota
	// OutputDiffers: the orderings can produce different output.
	OutputDiffers
	// KWitnessHarmless: harmless for k path-schedule witnesses.
	KWitnessHarmless
	// SingleOrdering: only one ordering is possible (ad-hoc sync).
	SingleOrdering
)

var classNames = map[Class]string{
	SpecViolated: "specViol", OutputDiffers: "outDiff",
	KWitnessHarmless: "k-witness", SingleOrdering: "singleOrd",
}

// String returns the paper's short class name.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Consequence refines SpecViolated for Table 2.
type Consequence uint8

// Consequence kinds.
const (
	ConsNone Consequence = iota
	ConsDeadlock
	ConsCrash
	ConsHang
	ConsSemantic
)

var consNames = map[Consequence]string{
	ConsNone: "-", ConsDeadlock: "deadlock", ConsCrash: "crash",
	ConsHang: "hang", ConsSemantic: "semantic",
}

// String names the consequence.
func (c Consequence) String() string {
	if s, ok := consNames[c]; ok {
		return s
	}
	return fmt.Sprintf("cons(%d)", uint8(c))
}

// Predicate is a "high level semantic property" (§3.5) supplied by the
// developer; Check returns false when the property is violated.
type Predicate struct {
	Name  string
	Check func(st *vm.State) bool
}

// GlobalPredicate builds a predicate over the hinted (concrete where
// possible) value of a named global scalar; handy for properties like
// "all timestamps are positive" (the fmm check of §5.1).
func GlobalPredicate(name string, global int, check func(v int64) bool) Predicate {
	return Predicate{
		Name: name,
		Check: func(st *vm.State) bool {
			if global < 0 || global >= len(st.Globals) {
				return true
			}
			v, err := st.HintEval(st.Globals[global][0])
			if err != nil {
				return true
			}
			return check(v)
		},
	}
}

// Options configure the classifier. The feature gates reproduce the
// technique breakdown of Fig 7.
type Options struct {
	// Mp bounds the number of primary paths (§3.3); Ma the number of
	// alternate schedules per primary (§3.4). k = Mp × Ma.
	Mp, Ma int

	// SymbolicInputs marks the first N input() reads symbolic;
	// SymbolicArgs marks specific program arguments symbolic.
	SymbolicInputs int
	SymbolicArgs   []int

	// EnforceBudget bounds the alternate-ordering enforcement (the
	// paper's timeout, §4: "5 times what it took to replay the primary"
	// — here an instruction budget). RunBudget bounds complete runs.
	EnforceBudget int64
	RunBudget     int64

	// MaxForks bounds state forking during multi-path exploration.
	MaxForks int

	// MaxQueuedForks bounds the pending-sibling queue of the multi-path
	// worklist; forks arriving at a full queue are dropped and counted in
	// Stats.TruncatedPaths. Values <= 0 mean the default (128).
	MaxQueuedForks int

	// MaxPathItems bounds how many worklist items one race's multi-path
	// exploration processes; items abandoned when the cap stops the
	// search short of Mp primaries are counted in Stats.TruncatedPaths.
	// Values <= 0 derive the paper-era default 4*Mp + 32.
	MaxPathItems int

	// NoCache disables the shared replay-checkpoint store. Verdicts are
	// byte-identical with the store on or off (asserted by the
	// determinism suite); the gate exists for that assertion and for
	// ablation timing.
	NoCache bool

	// NoStaticPrune disables the multi-path worklist's dead-item prune,
	// which skips exploration items whose remaining execution provably
	// cannot reach the racy object class or any symbolic branch. It is
	// an engine-internal ablation gate like NoCache: no facade option or
	// service request field sets it. The prune is verdict-neutral by
	// construction — the determinism suites' ablation matrix asserts
	// byte-identical verdicts with it on and off — so the gate exists for
	// that assertion and for ablation timing (BenchmarkStaticPrune).
	NoStaticPrune bool

	// StaticFacts supplies a precomputed static-analysis artifact for the
	// exact program under analysis (e.g. the facts the server's admission
	// computed on the same compiled program). nil lets RunStream run the
	// pass itself unless NoStaticPrune is set.
	StaticFacts *sa.Facts

	// Feature gates (Fig 7): ad-hoc synchronization detection, multi-path
	// analysis, multi-schedule analysis, symbolic output comparison.
	AdHocDetection bool
	MultiPath      bool
	MultiSchedule  bool
	SymbolicOutput bool

	// Predicates are developer-supplied semantic properties.
	Predicates []Predicate

	// Solver tunes the constraint solver budget.
	Solver solver.Options

	// Seed seeds the randomized alternate schedules. A zero Seed is the
	// default seed unless SeedSet marks it as explicitly chosen.
	Seed uint64

	// SeedSet marks Seed as explicitly chosen, letting callers pin seed
	// 0; without it a zero Seed falls back to DefaultOptions().Seed.
	SeedSet bool

	// Tier, when non-nil, carries warmth between RunStream runs: the
	// run's detection pass deposits checkpoints at the tier's positions,
	// and the run's own store's positions and counters go back to the
	// tier when it ends. Sharing a tier is worth it only between runs of
	// the identical (program, args, inputs, options); between any others
	// it only wastes warmth — see CacheTier. Ignored when NoCache is set.
	Tier *CacheTier

	// Parallel is the worker-pool width of the classification engine:
	// races classify concurrently in Run, and within one race the
	// primary×alternate worklist of the multi-path multi-schedule phase
	// fans out across workers. Verdict order and content are byte-
	// identical for every width (results merge in deterministic worklist
	// order); only Stats counters that depend on how much speculative
	// work ran (e.g. SolverQueries) may differ. Parallel < 1 means
	// GOMAXPROCS; 1 runs fully sequentially.
	Parallel int
}

// DefaultDetectCheckpointEvery is the initial cadence, in completed
// instructions, of the periodic replay checkpoints the detection pass
// deposits while it records the trace (unless NoCache is set). The
// cadence doubles after each periodic deposit, so a T-instruction trace
// deposits ~log2(T/64) of them, and each new race cluster's detection
// point deposits one regardless. Periodic deposits are what let even the
// first race of a trace resume (its first racing access precedes every
// detection point). With copy-on-write State.Clone a deposit costs one
// allocation, so the cadence starts dense: a 64-step initial window
// covers even the shortest traces ahead of their first race. The
// cadence only changes where snapshots are taken, never what the
// analysis computes — verdicts are byte-identical with the checkpoint
// stores on or off (the determinism suites' caches-off arms).
const DefaultDetectCheckpointEvery = 64

// DefaultOptions returns the configuration used throughout the
// evaluation: Mp=5, Ma=2, 2 symbolic inputs (§5), with the analysis
// fanned out across GOMAXPROCS workers (Parallel = 0).
func DefaultOptions() Options {
	return Options{
		Mp: 5, Ma: 2,
		SymbolicInputs: 2,
		EnforceBudget:  300_000,
		RunBudget:      3_000_000,
		MaxForks:       64,
		MaxQueuedForks: 128,
		// MaxPathItems stays 0: it derives from the effective Mp (4*Mp+32)
		// at Classifier construction.
		AdHocDetection: true,
		MultiPath:      true,
		MultiSchedule:  true,
		SymbolicOutput: true,
		Seed:           1,
	}
}

// Stats instruments one classification (Fig 9's axes, plus the cache
// and truncation accounting of the shared-replay engine).
type Stats struct {
	Preemptions   int // scheduling decisions in the recorded trace
	Branches      int // symbolic ("dependent") branches encountered
	SolverQueries int
	PrimaryPaths  int
	Alternates    int

	// CheckpointHits counts replays and multi-path explorations of this
	// classification that resumed from the shared checkpoint store
	// (populated by the detection pass and by earlier classification
	// replays) instead of the program's initial state. It depends on
	// store warmth (what earlier — possibly concurrent — work populated),
	// so unlike the verdict itself it may vary with pool width.
	CheckpointHits int

	// PrunedSchedules counts multi-path worklist items skipped by the
	// static dead-item prune: pending exploration items none of whose
	// live frames can (per internal/sa's reach facts) access the racy
	// object class or reach a fork point with a possibly-symbolic
	// operand. Such an item provably contributes no primary, no fork, and
	// no queue growth, so skipping it never changes the verdict — only
	// the work counted here. PathItemsRun counts the items that did run
	// (the denominator for the pruning ratio).
	PrunedSchedules int
	PathItemsRun    int

	// TruncatedPaths counts exploration the multi-path phase gave up on:
	// forked siblings dropped at the queue cap plus worklist items
	// abandoned when the item cap ended the search short of Mp primaries.
	// A non-zero count means a k-witness verdict's coverage claim is
	// narrower than the configuration asked for.
	TruncatedPaths int

	// Interpreter fast-path accounting for this classification's machines
	// (replay, enforcement, multi-path segments). FusedOps counts
	// superinstructions executed — each stands for several original
	// instructions dispatched as one; InternedConsts counts constants the
	// expression intern table served without allocating. Like
	// SolverQueries, both depend on how much speculative work the pool
	// ran, so they may vary with pool width while the verdict does not.
	FusedOps       int64
	InternedConsts int64

	// SkippedSteps counts enforcement instructions the interpreter
	// fast-forwarded instead of interpreting: a spin-tracked alternate
	// whose whole configuration provably recurs skips whole periods of
	// its timeout budget (vm.Counters.SkippedSteps). The budget still
	// binds exactly as if every instruction ran, so a timeout verdict
	// with SkippedSteps > 0 reached the same end state; the count only
	// says the budget was proven rather than interpreted. Like FusedOps
	// it follows the speculative work the pool ran.
	SkippedSteps int64

	// CloneAllocs / CloneBytes meter State.Clone across this
	// classification's machines: how many allocations and bytes the
	// copy-on-write snapshots themselves cost (checkpoint deposits and
	// resumes, enforcement forks, multi-path siblings). This replaces
	// the old per-clone cost model: snapshot cost is now measured, not
	// estimated. Like FusedOps it scales with speculative work, so it
	// may vary with pool width while the verdict does not.
	CloneAllocs int64
	CloneBytes  int64

	Duration time.Duration
}

// OutputDivergence is the evidence attached to an "output differs"
// verdict: where the outputs first differ (§3.6).
type OutputDivergence struct {
	Index           int // output record index, -1 for count mismatch
	Primary, Altern string
	PrimaryN, AltN  int
}

// Verdict is the classification of one race.
type Verdict struct {
	Race  *race.Report
	Class Class

	// Consequence and detail for specViol races (Table 2).
	Consequence Consequence
	Detail      string

	// K is the witness count for k-witness verdicts (k = paths ×
	// schedules actually compared).
	K int

	// StatesDiffer reports whether the concrete post-race memory of the
	// primary and alternate differed — the Record/Replay-Analyzer
	// criterion recorded for Table 3's "states same/differ" columns.
	StatesDiffer bool

	// OutputDiff is evidence for outDiff verdicts.
	OutputDiff *OutputDivergence

	Stats Stats
}

// String renders a one-line summary.
func (v *Verdict) String() string {
	switch v.Class {
	case SpecViolated:
		return fmt.Sprintf("specViol(%s: %s)", v.Consequence, v.Detail)
	case OutputDiffers:
		if v.OutputDiff != nil {
			return fmt.Sprintf("outDiff(at output %d)", v.OutputDiff.Index)
		}
		return "outDiff"
	case KWitnessHarmless:
		return fmt.Sprintf("k-witness(k=%d)", v.K)
	case SingleOrdering:
		return "singleOrd"
	}
	return "unknown"
}

// PredicateObserver watches shared writes and evaluates the semantic
// predicates after each one, catching transient violations that would be
// overwritten by the end of the run (like fmm's negative timestamp, §5.1).
type PredicateObserver struct {
	Preds     []Predicate
	Violation string // first violated predicate name, "" if none
}

// OnAccess implements vm.Observer: predicates are evaluated after every
// shared write.
func (o *PredicateObserver) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	if !write || o.Violation != "" {
		return
	}
	for _, p := range o.Preds {
		if !p.Check(st) {
			o.Violation = p.Name
			return
		}
	}
}

// OnSync implements vm.Observer (no-op).
func (o *PredicateObserver) OnSync(st *vm.State, ev vm.SyncEvent) {}

// CloneObs implements vm.Observer.
func (o *PredicateObserver) CloneObs() vm.Observer {
	return &PredicateObserver{Preds: o.Preds, Violation: o.Violation}
}

// findPredicateObserver retrieves the (cloned) predicate observer of a
// state, if any.
func findPredicateObserver(st *vm.State) *PredicateObserver {
	for _, o := range st.Observers {
		if po, ok := o.(*PredicateObserver); ok {
			return po
		}
	}
	return nil
}
