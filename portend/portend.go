// Package portend is the public, stable API of the Portend data-race
// classifier — the supported way to consume the engine that lives under
// internal/. It reproduces the analysis of "Data Races vs. Data Race
// Bugs: Telling the Difference with Portend" (ASPLOS 2012): given a
// program, it detects the data races an execution exposes and predicts
// each race's consequences, placing it in the paper's four-category
// taxonomy (specViol / outDiff / k-witness / singleOrd).
//
// The package is service-shaped: an Analyzer is configured once with
// functional options, a Target names what to analyze (PIL source, a file,
// a compiled program, or a built-in workload), and Analyze streams
// verdicts as they land while honouring context cancellation and
// deadlines —
//
//	a := portend.New(portend.WithMaxPaths(5), portend.WithMaxSchedules(2))
//	for v, err := range a.Analyze(ctx, portend.Workload("pbzip2")) {
//		if err != nil { ... }
//		fmt.Println(v.Race.ID, v.Class)
//	}
//
// AnalyzeAll is the batched convenience; both paths produce identical
// verdict sets in identical (deterministic) order at every parallelism
// width. Verdicts and Reports marshal to JSON, so machine-readable output
// falls out of encoding/json directly.
//
// Everything under internal/ remains the engine; no package outside
// internal/ should import internal/core (or its siblings) anymore — this
// facade is the only supported surface.
package portend

import (
	"repro/internal/core"
	"repro/internal/solver"
)

// Analyzer runs Portend analyses. It is immutable after New and safe for
// concurrent use: every Analyze call builds its own classification
// pipeline from the configured options.
type Analyzer struct {
	opts core.Options
}

// Option configures an Analyzer.
type Option func(*core.Options)

// New returns an Analyzer using the paper's evaluation defaults (Mp=5
// primary paths, Ma=2 alternate schedules, 2 symbolic inputs, all
// techniques enabled), modified by the given options.
func New(options ...Option) *Analyzer {
	opts := core.DefaultOptions()
	for _, o := range options {
		o(&opts)
	}
	return &Analyzer{opts: opts}
}

// WithBudget bounds complete executions (replay, primaries, alternates)
// to n interpreted instructions each. Values <= 0 keep the default.
func WithBudget(n int64) Option {
	return func(o *core.Options) { o.RunBudget = n }
}

// WithEnforceBudget bounds each alternate-ordering enforcement attempt —
// the paper's classification timeout (§4). Values <= 0 keep the default.
func WithEnforceBudget(n int64) Option {
	return func(o *core.Options) { o.EnforceBudget = n }
}

// WithParallel sets the classification worker-pool width: races classify
// concurrently, and within one race the primary×alternate worklist fans
// out across the same pool. Verdict order and content are identical at
// every width; 1 runs fully sequentially, values < 1 mean GOMAXPROCS.
func WithParallel(n int) Option {
	return func(o *core.Options) { o.Parallel = n }
}

// WithMaxPaths bounds the number of primary paths explored per race (the
// paper's Mp, §3.3). Values <= 0 keep the default.
func WithMaxPaths(mp int) Option {
	return func(o *core.Options) { o.Mp = mp }
}

// WithMaxSchedules bounds the alternate schedules per primary path (the
// paper's Ma, §3.4); k = Mp × Ma. Values <= 0 keep the default.
func WithMaxSchedules(ma int) Option {
	return func(o *core.Options) { o.Ma = ma }
}

// WithSymbolicInputs marks the first n input() reads symbolic, widening
// multi-path exploration beyond the recorded input log.
func WithSymbolicInputs(n int) Option {
	return func(o *core.Options) { o.SymbolicInputs = n }
}

// WithSymbolicArgs marks specific program arguments symbolic.
func WithSymbolicArgs(idx ...int) Option {
	return func(o *core.Options) { o.SymbolicArgs = append([]int(nil), idx...) }
}

// WithMaxForks bounds state forking during multi-path exploration.
func WithMaxForks(n int) Option {
	return func(o *core.Options) { o.MaxForks = n }
}

// WithSeed seeds the randomized alternate schedules; runs with the same
// seed (and options) are fully reproducible. Every seed value round-
// trips, including 0 — the option marks the seed as explicitly chosen,
// so WithSeed(0) pins seed 0 rather than falling back to the default.
func WithSeed(seed uint64) Option {
	return func(o *core.Options) { o.Seed, o.SeedSet = seed, true }
}

// WithCaching toggles the engine's shared reuse machinery: the replay
// checkpoint store (the detection pass and earlier races deposit
// snapshots that later replays and multi-path explorations resume from)
// and the memoizing solver cache. It is on by default; verdicts are byte-identical either way
// (the caches shift time, never outcomes), so disabling it is only
// useful for ablation timing or to trade speed for memory.
func WithCaching(enabled bool) Option {
	return func(o *core.Options) { o.NoCache = !enabled }
}

// Features are the technique gates of the paper's Fig 7 ablation.
type Features struct {
	// AdHocDetection classifies unenforceable alternates as ad-hoc
	// synchronization (singleOrd) instead of conservatively harmful.
	AdHocDetection bool
	// MultiPath explores up to Mp primary paths with symbolic inputs.
	MultiPath bool
	// MultiSchedule runs Ma randomized alternate schedules per primary.
	MultiSchedule bool
	// SymbolicOutput compares alternate outputs against the primary's
	// symbolic output constraints with the solver.
	SymbolicOutput bool
}

// FullAnalysis returns the paper's complete technique stack.
func FullAnalysis() Features {
	return Features{AdHocDetection: true, MultiPath: true, MultiSchedule: true, SymbolicOutput: true}
}

// SinglePath returns the "single-path" baseline of Fig 7.
func SinglePath() Features {
	return Features{}
}

// WithFeatures selects which of the paper's techniques run.
func WithFeatures(f Features) Option {
	return func(o *core.Options) {
		o.AdHocDetection = f.AdHocDetection
		o.MultiPath = f.MultiPath
		o.MultiSchedule = f.MultiSchedule
		o.SymbolicOutput = f.SymbolicOutput
	}
}

// WithSolverBudget tunes the constraint solver's search bounds.
func WithSolverBudget(maxCandidatesPerVar, maxNodes int) Option {
	return func(o *core.Options) {
		o.Solver = solver.Options{MaxCandidatesPerVar: maxCandidatesPerVar, MaxNodes: maxNodes}
	}
}

// WithEngineOptions replaces the analyzer's engine configuration
// wholesale. It is the module-internal bridge for harnesses (internal/
// eval, benchmarks) that already hold a core.Options; external consumers
// should compose the typed options above instead.
func WithEngineOptions(opts core.Options) Option {
	return func(o *core.Options) { *o = opts }
}

// Options returns a copy of the analyzer's resolved engine configuration
// (module-internal escape hatch, like WithEngineOptions).
func (a *Analyzer) Options() core.Options { return a.opts }
