package portend

import (
	"context"
	"iter"
	"time"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/vm"
)

// Analyze detects the data races the target's execution exposes and
// streams one Verdict per distinct race, in deterministic detection
// order, as soon as each classification (and every earlier one) lands.
// The order and content of the sequence are identical at every
// WithParallel width; parallelism only shifts when elements arrive.
//
// The yielded error is non-nil in exactly two cases:
//
//   - a *RaceError — that one race failed to classify; the sequence
//     continues with the remaining races;
//   - a terminal error — target resolution failed (wrapping one of this
//     package's sentinels) or ctx was cancelled; the sequence ends. On
//     cancellation every in-flight classification is interrupted (the
//     replay machines, the multi-path worklist, and the solver all poll
//     the context), so iteration returns promptly with the verdicts that
//     completed before the cancel.
//
// Breaking out of the loop early cancels the remaining work. Ranging the
// returned sequence again re-runs the whole analysis.
func (a *Analyzer) Analyze(ctx context.Context, t Target) iter.Seq2[Verdict, error] {
	return func(yield func(Verdict, error) bool) {
		r, err := t.resolve()
		if err != nil {
			yield(Verdict{}, err)
			return
		}
		opts := a.optsFor(r)
		stopped := false
		_, runErr := core.RunStream(ctx, r.prog, r.args, r.inputs, opts,
			func(rep *race.Report, cv *core.Verdict, cerr error) bool {
				var ok bool
				if cerr != nil {
					ok = yield(Verdict{}, &RaceError{RaceID: rep.ID(), Err: cerr})
				} else {
					ok = yield(newVerdict(cv, r.prog), nil)
				}
				if !ok {
					stopped = true
				}
				return ok
			})
		if runErr != nil && !stopped {
			yield(Verdict{}, runErr)
		}
	}
}

// AnalyzeAll is the batched form of Analyze: it runs the same streaming
// pipeline to completion and returns every verdict in the same
// deterministic order. Per-race classification failures are recorded in
// Report.Errors; the returned error is reserved for terminal failures
// (bad target, cancellation) and is accompanied by the partial Report
// accumulated so far.
func (a *Analyzer) AnalyzeAll(ctx context.Context, t Target) (*Report, error) {
	r, err := t.resolve()
	if err != nil {
		return nil, err
	}
	opts := a.optsFor(r)
	res, runErr := core.RunStream(ctx, r.prog, r.args, r.inputs, opts, nil)
	return a.report(t.Name(), r, res), runErr
}

// report converts an engine result into the public Report.
func (a *Analyzer) report(name string, r *resolved, res *core.Result) *Report {
	rep := &Report{Target: name, res: res}
	if det := res.Detection; det != nil {
		rep.Races = len(det.Reports)
		for _, dr := range det.Reports {
			rep.Instances += dr.Instances
		}
	}
	for _, cv := range res.Verdicts {
		rep.Verdicts = append(rep.Verdicts, newVerdict(cv, r.prog))
	}
	for _, e := range res.Errors {
		rep.Errors = append(rep.Errors, e.Error())
	}
	return rep
}

// WhatIf asks whether the target's designated synchronization is safe to
// remove (§5.1): it re-analyzes the program with the lock/unlock
// operations at the what-if lines turned into no-ops and reports the
// races that only the modified program exhibits. The target must carry
// source (Source, File, or Workload) and what-if lines — a workload's
// designated lines, or lines set via Target.WithWhatIfLines; otherwise
// ErrNoWhatIf is returned.
func (a *Analyzer) WhatIf(ctx context.Context, t Target) (*WhatIfReport, error) {
	r, err := t.resolve()
	if err != nil {
		return nil, err
	}
	if r.source == "" || len(r.whatIfLines) == 0 {
		return nil, ErrNoWhatIf
	}
	opts := a.optsFor(r)
	res, err := core.WhatIfCtx(ctx, r.source, r.name, r.whatIfLines, r.args, r.inputs, opts)
	if err != nil {
		return nil, err
	}
	w := &WhatIfReport{
		Target:       t.Name(),
		RemovedLines: append([]int(nil), r.whatIfLines...),
		All:          a.report(t.Name(), &resolved{prog: res.Modified}, res.All),
	}
	for _, cv := range res.NewRaces {
		w.NewRaces = append(w.NewRaces, newVerdict(cv, res.Modified))
	}
	return w, nil
}

// optsFor merges the analyzer's options with target-supplied predicates.
func (a *Analyzer) optsFor(r *resolved) core.Options {
	opts := a.opts
	if len(r.preds) > 0 {
		opts.Predicates = append(append([]core.Predicate(nil), opts.Predicates...), r.preds...)
	}
	return opts
}

// ExecResult is the outcome of a plain concrete execution (Exec).
type ExecResult struct {
	// Output is the program's rendered print output.
	Output string `json:"output"`
	// Steps counts interpreted instructions.
	Steps int64 `json:"steps"`
	// Stop says why the run ended: "finished", "deadlock", "error",
	// "budget", or "cancelled".
	Stop string `json:"stop"`
	// Err carries the runtime error message when Stop is "error".
	Err      string        `json:"error,omitempty"`
	Duration time.Duration `json:"durationNs"`
}

// Failed reports whether the execution ended abnormally (runtime error
// or deadlock).
func (r *ExecResult) Failed() bool {
	return r.Stop == vm.StopError.String() || r.Stop == vm.StopDeadlock.String()
}

// Exec runs the target concretely — no race detection, no classification;
// the reproduction's equivalent of plain Cloud9 interpretation, and the
// baseline for Table 4's running-time column. budget bounds the run in
// interpreted instructions (< 0 means unlimited; 0 stops before the
// first instruction). On cancellation the partial result is returned
// together with ctx's error.
func Exec(ctx context.Context, t Target, budget int64) (*ExecResult, error) {
	r, err := t.resolve()
	if err != nil {
		return nil, err
	}
	st := vm.NewState(r.prog, r.args, r.inputs)
	m := vm.NewMachine(st, vm.NewRoundRobin())
	m.Interrupt = vm.PollDone(ctx.Done())
	start := time.Now()
	res := m.Run(budget)
	dur := time.Since(start) // before output rendering: Duration is pure interpretation
	out := &ExecResult{
		Output:   st.RenderOutputs(),
		Steps:    st.Steps,
		Stop:     res.Kind.String(),
		Duration: dur,
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	if res.Kind == vm.StopCancelled {
		return out, ctx.Err()
	}
	return out, nil
}

// Disassemble renders the target's compiled bytecode.
func Disassemble(t Target) (string, error) {
	r, err := t.resolve()
	if err != nil {
		return "", err
	}
	return r.prog.Disasm(), nil
}
