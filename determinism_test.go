package repro

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// renderResult renders everything user-visible about a run — verdict
// order, one-line summaries, full §3.6 debugging-aid reports, and
// classification errors — as one string for byte-level comparison.
func renderResult(p *bytecode.Program, res *core.Result) string {
	var b strings.Builder
	for _, v := range res.Verdicts {
		b.WriteString(v.Race.ID())
		b.WriteString("  ")
		b.WriteString(v.String())
		b.WriteString("\n")
		b.WriteString(v.Report(p))
		b.WriteString("\n")
	}
	for _, err := range res.Errors {
		b.WriteString("error: ")
		b.WriteString(err.Error())
		b.WriteString("\n")
	}
	return b.String()
}

// TestTightBudgetCheckpointDeterminism pins the budget accounting of
// checkpoint resumes: under a run budget tight enough to bite, verdicts
// must be byte-identical with the checkpoint stores on and off, at
// sequential and parallel widths. A resumed replay or exploration is
// charged for its skipped prefix, so a budget-bound analysis stops at
// exactly the instruction its root-started twin would — otherwise
// checkpoint warmth could flip verdicts. The suite runs every built-in
// workload plus the two synthetic checkpoint shapes (many races behind
// a long prefix; input() and symbolic branches before every race).
func TestTightBudgetCheckpointDeterminism(t *testing.T) {
	suite := append([]*workloads.Workload{}, workloads.All()...)
	suite = append(suite,
		&workloads.Workload{Name: "many-race-tight", Source: workloads.ManyRaceSource(6, 1500), Inputs: []int64{3}},
		&workloads.Workload{Name: "sym-prefix-tight", Source: workloads.SymPrefixRaceSource(4, 5, 800), Inputs: []int64{2}},
	)
	for _, w := range suite {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Compile()
			run := func(parallel int, noCache bool) string {
				opts := core.DefaultOptions()
				opts.RunBudget = 40_000
				opts.EnforceBudget = 6_000
				opts.Parallel = parallel
				opts.NoCache = noCache
				if w.Predicates != nil {
					opts.Predicates = w.Predicates(p)
				}
				return renderResult(p, core.Run(p, w.Args, w.Inputs, opts))
			}
			want := run(1, false)
			for _, cfg := range []struct {
				name     string
				parallel int
				noCache  bool
			}{
				{"parallel=1 caches=off", 1, true},
				{"parallel=8 caches=on", 8, false},
				{"parallel=8 caches=off", 8, true},
			} {
				if got := run(cfg.parallel, cfg.noCache); got != want {
					t.Errorf("tight-budget verdicts differ between caches=on parallel=1 and %s\n--- want ---\n%s\n--- got ---\n%s",
						cfg.name, want, got)
				}
			}
		})
	}
}

// TestParallelDeterminism asserts the acceptance criteria of the
// parallel, shared-replay, and fused-interpreter engines together: for
// every built-in workload, verdicts and reports are byte-identical
// across a fully sequential run (-parallel 1), a fanned-out run
// (-parallel 8), runs with the reuse caches (replay checkpoint store,
// solver memo) disabled at both widths, and runs of the program compiled
// without the superinstruction fusion pass — the overlay must only
// change how fast instructions dispatch, never what they compute or how
// they are counted. Run under -race this also exercises the engine's
// synchronization: shared solver and its cache, shared fork budget,
// concurrent cloning of pre-race checkpoints, and concurrent access to
// the checkpoint store.
func TestParallelDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Compile()
			pNoFuse := bytecode.MustCompile(w.Source, w.Name, bytecode.Options{NoFuse: true})

			optsFor := func(prog *bytecode.Program, parallel int, noCache bool) core.Options {
				opts := core.DefaultOptions()
				opts.Parallel = parallel
				opts.NoCache = noCache
				if w.Predicates != nil {
					opts.Predicates = w.Predicates(prog)
				}
				return opts
			}

			want := renderResult(p, core.Run(p, w.Args, w.Inputs, optsFor(p, 1, false)))
			for _, cfg := range []struct {
				name     string
				prog     *bytecode.Program
				parallel int
				noCache  bool
			}{
				{"parallel=8 caches=on", p, 8, false},
				{"parallel=1 caches=off", p, 1, true},
				{"parallel=8 caches=off", p, 8, true},
				{"parallel=1 fusion=off", pNoFuse, 1, false},
				{"parallel=8 fusion=off caches=off", pNoFuse, 8, true},
			} {
				got := renderResult(cfg.prog, core.Run(cfg.prog, w.Args, w.Inputs, optsFor(cfg.prog, cfg.parallel, cfg.noCache)))
				if got != want {
					t.Errorf("verdicts differ between -parallel 1 caches=on and %s\n--- want ---\n%s\n--- got ---\n%s", cfg.name, want, got)
				}
			}
			if want == "" {
				t.Logf("workload %s produced no verdicts", w.Name)
			}
		})
	}
}

// TestCorpusDeterminism extends the parallel-determinism property from
// the seven hand-ported workloads to the full labeled corpus — curated
// and generated halves alike: for every program of the default suite,
// verdicts and reports are byte-identical across worker-pool widths 1
// and 8 with the reuse caches on and off. The corpus accuracy baseline
// (CORPUS_<n>.json) is only meaningful because of this property; the
// generated programs also stress shapes (barriers, condvars, lock-free
// bookkeeping) the built-in workloads cover more thinly.
func TestCorpusDeterminism(t *testing.T) {
	for _, cp := range corpus.Default() {
		cp := cp
		t.Run(cp.Name, func(t *testing.T) {
			t.Parallel()
			p := cp.Compile()
			run := func(parallel int, noCache bool) string {
				opts := core.DefaultOptions()
				opts.Parallel = parallel
				opts.NoCache = noCache
				return renderResult(p, core.Run(p, cp.Args, cp.Inputs, opts))
			}
			want := run(1, false)
			if want == "" {
				t.Errorf("corpus program %s produced no verdicts", cp.Name)
			}
			for _, cfg := range []struct {
				name     string
				parallel int
				noCache  bool
			}{
				{"parallel=8 caches=on", 8, false},
				{"parallel=1 caches=off", 1, true},
				{"parallel=8 caches=off", 8, true},
			} {
				if got := run(cfg.parallel, cfg.noCache); got != want {
					t.Errorf("verdicts differ between -parallel 1 caches=on and %s\n--- want ---\n%s\n--- got ---\n%s",
						cfg.name, want, got)
				}
			}
		})
	}
}
