package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/lang"
	"repro/internal/race"
	"repro/internal/sa"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Result bundles a detection run with the classification of every
// detected race — the end-to-end Portend pipeline of Fig 2.
type Result struct {
	Prog      *bytecode.Program
	Detection *race.DetectionResult
	Verdicts  []*Verdict
	// Errors holds per-race classification errors. Each entry is
	// prefixed with the failing race's ID and appended in detection-
	// report order; races that classified successfully appear in
	// Verdicts instead, so the two slices do not share indexes.
	Errors []error
}

// YieldFunc consumes streamed classification outcomes: exactly one call
// per detected race, in detection-report order, carrying either the
// race's verdict or its classification error (never both). Returning
// false stops the run early — in-flight workers are cancelled and
// RunStream returns the partial Result without error.
type YieldFunc func(rep *race.Report, v *Verdict, err error) bool

// Run detects races in the program under the given concrete arguments and
// input log, then classifies each distinct race. It is the batch form of
// RunStream with a background context.
func Run(p *bytecode.Program, args, inputs []int64, opts Options) *Result {
	res, _ := RunStream(context.Background(), p, args, inputs, opts, nil)
	return res
}

// RunCtx is Run with cancellation: when ctx is cancelled (or its deadline
// passes), detection and every in-flight classification abort promptly
// and RunCtx returns the partial Result accumulated so far together with
// ctx's error. Partial results contain only fully classified races.
func RunCtx(ctx context.Context, p *bytecode.Program, args, inputs []int64, opts Options) (*Result, error) {
	return RunStream(ctx, p, args, inputs, opts, nil)
}

// RunStream is the engine's streaming entry point: verdicts are handed to
// yield incrementally, as soon as they and every earlier race's verdict
// have landed. Emission always follows detection-report order — the same
// deterministic merge order as the batch path — so the sequence of yields
// is byte-identical at every pool width; parallelism only shifts the
// moments at which they fire. A nil yield collects without streaming.
//
// Classification fans out across opts.Parallel workers (GOMAXPROCS when
// unset): each race is an independent analysis, so each worker task gets
// its own Classifier (and thus its own solver) and writes its outcome
// into a slot indexed by the race's position in the detection report
// list; slots are merged — and streamed — strictly in that order.
func RunStream(ctx context.Context, p *bytecode.Program, args, inputs []int64, opts Options, yield YieldFunc) (*Result, error) {
	budget := opts.RunBudget
	if budget <= 0 {
		budget = DefaultOptions().RunBudget
	}
	res := &Result{Prog: p}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// All races of this run share one trace, so they share one pair of
	// checkpoint stores (concrete replay + symbolic exploration) and one
	// memoizing solver cache. The bundle exists before detection runs:
	// the detection pass itself deposits replay checkpoints — at each new
	// race cluster's detection point and on a periodic cadence — so even
	// the trace's first classification resumes instead of paying a full
	// root replay. None of the caches can change a verdict (resume is
	// deterministic replay, memoized answers are what the deterministic
	// search would recompute); they only shift time, which the
	// determinism suite asserts by diffing cached vs uncached runs.
	// A caller-supplied CacheTier replaces the per-run bundle: its
	// contents outlive the run, so a repeat submission of the identical
	// (program, args, inputs, options) starts warm. The tier owner calls
	// BeginRun/end around RunStream; here the tier's bundle simply takes
	// the per-run bundle's place.
	inner := opts
	if !inner.NoCache && inner.shared == nil {
		if inner.Tier != nil {
			inner.Tier.bindPredicates(inner.Predicates)
			inner.shared = inner.Tier.shared
		} else {
			inner.shared = newSharedCaches()
		}
	}
	// Static pre-analysis: run the internal/sa pass once per run (unless
	// the caller supplied precomputed facts, e.g. the server's
	// admission-time artifact) and thread the facts through every
	// classifier's multi-path prune. Like the caches, the prune only
	// shifts work, never verdicts — the determinism suites' ablation
	// matrix asserts byte-identical verdicts with NoStaticPrune on and
	// off.
	if !inner.NoStaticPrune && inner.StaticFacts == nil {
		inner.StaticFacts = sa.Analyze(p)
	}
	det := race.DetectWith(ctx, p, args, inputs, budget, detectionConfig(inner, inner.shared))
	res.Detection = det
	if err := ctx.Err(); err != nil {
		return res, err
	}
	n := len(det.Reports)

	// Split the pool between the two fan-out levels: when the races
	// alone saturate the pool, each race classifies with a sequential
	// inner engine; with few races the leftover width goes to each
	// race's primary×alternate worklist. This bounds the total
	// goroutine count (and the VM state clones they hold) by roughly
	// the pool width instead of its square. The split never changes a
	// verdict — pool width only affects wall-clock.
	workers := sched.Workers(opts.Parallel)
	if n > 0 {
		inner.Parallel = (workers + n - 1) / n
	}
	if workers > n {
		workers = n
	}

	type outcome struct {
		v   *Verdict
		err error
	}
	outs := make([]outcome, n)

	// merge folds slot i into the Result and streams it; it reports
	// whether the run should continue.
	merge := func(i int) bool {
		o := outs[i]
		rep := det.Reports[i]
		if o.err != nil {
			res.Errors = append(res.Errors, fmt.Errorf("%s: %w", rep.ID(), o.err))
		} else {
			res.Verdicts = append(res.Verdicts, o.v)
		}
		return yield == nil || yield(rep, o.v, o.err)
	}

	if workers <= 1 || n == 1 {
		// Sequential engine: classify and stream inline, in order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			v, err := New(p, inner).ClassifyCtx(ctx, det.Reports[i], det.Trace)
			if cerr := ctx.Err(); cerr != nil {
				return res, cerr
			}
			outs[i] = outcome{v, err}
			if !merge(i) {
				return res, nil
			}
		}
		return res, nil
	}

	// Parallel engine: workers claim races from a shared cursor and
	// publish per-slot completion; the caller's goroutine merges and
	// streams slots strictly in index order. cctx lets an early stop
	// (yield returning false) or the caller's cancellation wind down
	// in-flight classifications promptly.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if cctx.Err() == nil {
					v, err := New(p, inner).ClassifyCtx(cctx, det.Reports[i], det.Trace)
					outs[i] = outcome{v, err}
				} else {
					outs[i] = outcome{err: cctx.Err()}
				}
				close(done[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return res, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			// The slot landed, but the run is cancelled: stop merging so
			// partial results hold only races classified before cancel.
			return res, err
		}
		if !merge(i) {
			return res, nil
		}
	}
	return res, nil
}

// detectionConfig builds the detection-phase checkpointing hooks for a
// run backed by the given shared caches (nil — caching off — yields the
// zero config and plain detection).
//
// Detection runs with the classifier's own observers attached (the
// all-object access counter, and the predicate observer when predicates
// are configured) so each snapshot is interchangeable with a state the
// classification replay would have produced itself: same prefix, same
// observer state, detector detached. The snapshot's controller is a
// replayer over the live trace pinned at the park's decision count —
// resuming it continues the recorded schedule exactly where the
// recording stood.
func detectionConfig(opts Options, shared *sharedCaches) race.DetectConfig {
	if shared == nil {
		return race.DetectConfig{}
	}
	var extra []vm.Observer
	if len(opts.Predicates) > 0 {
		extra = append(extra, &PredicateObserver{Preds: opts.Predicates})
	}
	extra = append(extra, newAccessCounter())
	return race.DetectConfig{
		Extra:         extra,
		SnapshotEvery: DefaultDetectCheckpointEvery,
		Snapshot: func(st *vm.State, tr *trace.Trace, decisions int) {
			if store := shared.storeFor(tr); store != nil {
				store.Add(ckpt.Entry{State: st, Ctl: trace.ReplayerAt(tr, vm.NewRoundRobin(), decisions)})
			}
		},
	}
}

// ByClass groups the verdicts by class.
func (r *Result) ByClass() map[Class][]*Verdict {
	m := map[Class][]*Verdict{}
	for _, v := range r.Verdicts {
		m[v.Class] = append(m[v.Class], v)
	}
	return m
}

// Report renders the full debugging-aid report for a verdict (§3.6,
// Fig 6): the race coordinates, the classification, the consequence, and
// the output-divergence evidence when present.
func (v *Verdict) Report(p *bytecode.Program) string {
	var b strings.Builder
	b.WriteString(v.Race.Describe(p))
	fmt.Fprintf(&b, "classification: %s\n", v.Class)
	switch v.Class {
	case SpecViolated:
		fmt.Fprintf(&b, "consequence: %s\n", v.Consequence)
		fmt.Fprintf(&b, "evidence: %s\n", v.Detail)
		b.WriteString("replay: deterministic (schedule trace + inputs recorded)\n")
	case OutputDiffers:
		if v.OutputDiff != nil {
			if v.OutputDiff.Index < 0 {
				fmt.Fprintf(&b, "output count differs: primary %d records, alternate %d records\n",
					v.OutputDiff.PrimaryN, v.OutputDiff.AltN)
			} else {
				fmt.Fprintf(&b, "outputs differ at record %d:\n  primary:   %q\n  alternate: %q\n",
					v.OutputDiff.Index, v.OutputDiff.Primary, v.OutputDiff.Altern)
			}
		}
	case KWitnessHarmless:
		fmt.Fprintf(&b, "harmless for k=%d path-schedule witnesses\n", v.K)
		fmt.Fprintf(&b, "post-race states %s (Record/Replay-Analyzer criterion)\n",
			map[bool]string{true: "differ", false: "same"}[v.StatesDiffer])
	case SingleOrdering:
		fmt.Fprintf(&b, "only one ordering of the accesses is possible: %s\n", v.Detail)
	}
	if v.Stats.TruncatedPaths > 0 {
		fmt.Fprintf(&b, "warning: multi-path exploration truncated (%d paths dropped by fork/worklist caps)\n",
			v.Stats.TruncatedPaths)
	}
	return b.String()
}

// WhatIfResult is the outcome of a what-if analysis (§5.1): the races
// that appear only once the targeted synchronization is removed, with
// their classifications.
type WhatIfResult struct {
	Modified *bytecode.Program
	NewRaces []*Verdict
	All      *Result
}

// WhatIf asks "is it safe to remove this synchronization?": it compiles
// the program twice — as written, and with the lock/unlock operations at
// the given source lines turned into no-ops — runs detection on both, and
// classifies the races that exist only in the modified program.
func WhatIf(src, name string, elideLines []int, args, inputs []int64, opts Options) (*WhatIfResult, error) {
	return WhatIfCtx(context.Background(), src, name, elideLines, args, inputs, opts)
}

// WhatIfCtx is WhatIf with cancellation; a cancelled ctx aborts both
// detection runs and the classification promptly, returning ctx's error.
func WhatIfCtx(ctx context.Context, src, name string, elideLines []int, args, inputs []int64, opts Options) (*WhatIfResult, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	base, err := bytecode.Compile(ast, name, bytecode.Options{})
	if err != nil {
		return nil, err
	}
	ast2, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	mod, err := bytecode.Compile(ast2, name+"-whatif", bytecode.Options{ElideSyncAtLines: elideLines})
	if err != nil {
		return nil, err
	}

	budget := opts.RunBudget
	if budget <= 0 {
		budget = DefaultOptions().RunBudget
	}
	baseDet := race.DetectCtx(ctx, base, args, inputs, budget)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	known := map[race.ClusterKey]bool{}
	for _, r := range baseDet.Reports {
		known[r.Key] = true
	}

	res, err := RunCtx(ctx, mod, args, inputs, opts)
	if err != nil {
		return nil, err
	}
	w := &WhatIfResult{Modified: mod, All: res}
	for _, v := range res.Verdicts {
		if !known[v.Race.Key] {
			w.NewRaces = append(w.NewRaces, v)
		}
	}
	return w, nil
}

// verify interface compliance at compile time.
var _ vm.Observer = (*PredicateObserver)(nil)
