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

// ablationArm is one configuration of the engine-internal ablation
// gates: the worker-pool width, core.Options.NoCache (the replay
// checkpoint store), core.Options.NoStaticPrune (the multi-path
// dead-item prune) and bytecode.Options.NoFuse (the superinstruction
// overlay). Every gate shifts only work, never verdicts.
type ablationArm struct {
	name                     string
	parallel                 int
	noCache, noPrune, noFuse bool
}

// ablationArms is the one ablation matrix the determinism suites
// iterate: each arm's verdicts must be byte-identical to a width-1 run
// with every layer on.
var ablationArms = []ablationArm{
	{name: "parallel=8", parallel: 8},
	{name: "parallel=1 caches=off", parallel: 1, noCache: true},
	{name: "parallel=1 prune=off", parallel: 1, noPrune: true},
	{name: "parallel=1 fusion=off", parallel: 1, noFuse: true},
	{name: "parallel=8 caches=off prune=off fusion=off", parallel: 8, noCache: true, noPrune: true, noFuse: true},
}

// checkArms runs w at width 1 with every layer on and then under each
// arm, starting every run from base (which carries a suite's budgets),
// and reports each arm whose rendered result differs. It returns the
// reference rendering.
func checkArms(t *testing.T, w *workloads.Workload, base core.Options, arms []ablationArm) string {
	t.Helper()
	p := w.Compile()
	pNoFuse := bytecode.MustCompile(w.Source, w.Name, bytecode.Options{NoFuse: true})
	run := func(arm ablationArm) string {
		prog := p
		if arm.noFuse {
			prog = pNoFuse
		}
		opts := base
		opts.Parallel = arm.parallel
		opts.NoCache = arm.noCache
		opts.NoStaticPrune = arm.noPrune
		if w.Predicates != nil {
			opts.Predicates = w.Predicates(prog)
		}
		return renderResult(prog, core.Run(prog, w.Args, w.Inputs, opts))
	}
	want := run(ablationArm{parallel: 1})
	for _, arm := range arms {
		if got := run(arm); got != want {
			t.Errorf("verdicts differ between parallel=1 with every layer on and %s\n--- want ---\n%s\n--- got ---\n%s",
				arm.name, want, got)
		}
	}
	return want
}

// workloadSuite is the built-in workloads plus the two synthetic
// static-prune shapes, whose nested tainted guards mint the bypass
// siblings the dead-item prune exists to skip (the built-ins keep the
// prune honest on programs where it can prove little or nothing).
func workloadSuite() []*workloads.Workload {
	suite := append([]*workloads.Workload{}, workloads.All()...)
	suite = append(suite,
		&workloads.Workload{Name: "static-prune-deep", Source: workloads.StaticPruneSource(4, 1, 0), Inputs: []int64{100}},
		&workloads.Workload{Name: "static-prune-wide", Source: workloads.StaticPruneSource(3, 2, 0), Inputs: []int64{100}},
		// One write racing three earlier reads from two source lines: the
		// detector must report the reads in ascending TID on every run.
		&workloads.Workload{Name: "multi-reader", Source: `var x = 0
fn rd() {
  let a = x
  print("a=", a)
}
fn rd2() {
  let b = x
  print("b=", b)
}
fn wr() {
  x = 1
}
fn main() {
  let t1 = spawn rd()
  let t2 = spawn rd()
  let t4 = spawn rd2()
  let t3 = spawn wr()
  join(t1)
  join(t2)
  join(t4)
  join(t3)
}`},
	)
	return suite
}

// TestTightBudgetCheckpointDeterminism pins the budget accounting of
// checkpoint resumes, pruned worklists and fused dispatch: under a run
// budget tight enough to bite, every arm of the ablation matrix must
// yield byte-identical verdicts. A resumed replay or exploration is
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
	base := core.DefaultOptions()
	base.RunBudget = 40_000
	base.EnforceBudget = 6_000
	for _, w := range suite {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			checkArms(t, w, base, ablationArms)
		})
	}
}

// TestParallelDeterminism asserts the acceptance criteria of the
// parallel, shared-replay, static-prune and fused-interpreter engines
// together: for every built-in workload and both static-prune shapes,
// every arm of the ablation matrix yields verdicts and reports
// byte-identical to a fully sequential run with every layer on. Fusion
// must only change how fast instructions dispatch, never what they
// compute or how they are counted; the prune may only skip worklist
// items that can neither reach the racy object nor fork. Run under
// -race this also exercises the engine's synchronization: shared solver,
// shared fork budget, concurrent cloning of pre-race checkpoints, and
// concurrent access to the checkpoint store.
func TestParallelDeterminism(t *testing.T) {
	for _, w := range workloadSuite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if checkArms(t, w, core.DefaultOptions(), ablationArms) == "" {
				t.Logf("workload %s produced no verdicts", w.Name)
			}
		})
	}
}

// TestCorpusDeterminism extends the ablation matrix from the built-in
// workloads to the full labeled corpus — curated and generated halves
// alike. The corpus accuracy baseline (CORPUS_<n>.json) is only
// meaningful because of this property; the generated programs also
// stress shapes (barriers, condvars, lock-free bookkeeping) the
// built-in workloads cover more thinly.
func TestCorpusDeterminism(t *testing.T) {
	for _, cp := range corpus.Default() {
		cp := cp
		t.Run(cp.Name, func(t *testing.T) {
			t.Parallel()
			if checkArms(t, cp.Workload, core.DefaultOptions(), ablationArms) == "" {
				t.Errorf("corpus program %s produced no verdicts", cp.Name)
			}
		})
	}
}
