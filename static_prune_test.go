package repro

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/sa"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// TestStaticArtifactDeterminism pins the sa.Facts artifact bytes:
// analyzing any workload or curated corpus program repeatedly — and
// from 8 goroutines at once — yields the identical encoded artifact.
// The server caches the artifact per tier and keys admission decisions
// off it, so instability here would make admission behavior depend on
// which request computed the facts.
func TestStaticArtifactDeterminism(t *testing.T) {
	type prog struct {
		name string
		p    *bytecode.Program
	}
	var progs []prog
	for _, w := range workloadSuite() {
		progs = append(progs, prog{"workload/" + w.Name, w.Compile()})
	}
	for _, cp := range corpus.Curated() {
		progs = append(progs, prog{"corpus/" + cp.Name, cp.Compile()})
	}
	for _, pg := range progs {
		pg := pg
		t.Run(pg.name, func(t *testing.T) {
			t.Parallel()
			want := sa.Analyze(pg.p).Encode()
			got := make([][]byte, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = sa.Analyze(pg.p).Encode()
				}(i)
			}
			wg.Wait()
			for i := range got {
				if !bytes.Equal(want, got[i]) {
					t.Fatalf("artifact differs on concurrent run %d\n--- want ---\n%s\n--- got ---\n%s", i, want, got[i])
				}
			}
		})
	}
}

// runWithPrune runs one target with the static prune on or off and
// returns the rendered result plus the prune counters summed across
// verdicts.
func runWithPrune(p *bytecode.Program, w *workloads.Workload, parallel int, prune bool) (string, int, int) {
	opts := core.DefaultOptions()
	opts.Parallel = parallel
	opts.NoStaticPrune = !prune
	if w.Predicates != nil {
		opts.Predicates = w.Predicates(p)
	}
	res := core.Run(p, w.Args, w.Inputs, opts)
	pruned, ran := 0, 0
	for _, v := range res.Verdicts {
		pruned += v.Stats.PrunedSchedules
		ran += v.Stats.PathItemsRun
	}
	return renderResult(p, res), pruned, ran
}

// TestStaticPruneVerdictIdentity is the prune's HARD contract, run as
// the ablation matrix's prune-off arms: for every workload (built-in
// and synthetic) and every curated corpus program, verdicts and reports
// are byte-identical with the static prune on and off. The prune may
// only skip worklist items the static analysis proves can neither reach
// the racy object nor fork — items whose completed runs are discarded
// anyway — so nothing user-visible may move. TestParallelDeterminism
// and TestCorpusDeterminism run the same arms as part of the full
// matrix.
func TestStaticPruneVerdictIdentity(t *testing.T) {
	var arms []ablationArm
	for _, arm := range ablationArms {
		if arm.noPrune {
			arms = append(arms, arm)
		}
	}
	type target struct {
		name string
		w    *workloads.Workload
	}
	var targets []target
	for _, w := range workloadSuite() {
		targets = append(targets, target{"workload/" + w.Name, w})
	}
	for _, cp := range corpus.Curated() {
		targets = append(targets, target{"corpus/" + cp.Name, cp.Workload})
	}
	for _, tg := range targets {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			t.Parallel()
			checkArms(t, tg.w, core.DefaultOptions(), arms)
		})
	}
}

// TestStaticPruneSkipsDeadSiblings pins that the prune actually bites
// on the shapes built for it: both synthetic workloads must show
// pruned items, a ≥20% reduction in worklist items run, and — per the
// identity contract above — unchanged verdicts.
func TestStaticPruneSkipsDeadSiblings(t *testing.T) {
	for _, w := range []*workloads.Workload{
		{Name: "static-prune-deep", Source: workloads.StaticPruneSource(4, 1, 0), Inputs: []int64{100}},
		{Name: "static-prune-wide", Source: workloads.StaticPruneSource(3, 2, 0), Inputs: []int64{100}},
	} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Compile()
			off, prunedOff, ranOff := runWithPrune(p, w, 1, false)
			on, prunedOn, ranOn := runWithPrune(p, w, 1, true)
			if on != off {
				t.Fatalf("verdicts differ\n--- off ---\n%s\n--- on ---\n%s", off, on)
			}
			if prunedOff != 0 {
				t.Errorf("prune off reported %d pruned items", prunedOff)
			}
			if prunedOn == 0 {
				t.Fatalf("prune on skipped nothing (ran %d items)", ranOn)
			}
			if ranOn+prunedOn != ranOff {
				t.Errorf("item accounting: off ran %d, on ran %d + pruned %d", ranOff, ranOn, prunedOn)
			}
			if reduction := float64(prunedOn) / float64(ranOff); reduction < 0.20 {
				t.Errorf("reduction %.0f%% < 20%% (ran %d of %d items)", reduction*100, ranOn, ranOff)
			} else {
				t.Logf("pruned %d of %d worklist items (%.0f%%)", prunedOn, ranOff, reduction*100)
			}
		})
	}
}

// TestStaticRaceFreeMeansNoVerdicts ties the static and dynamic sides
// together: when the artifact claims RaceFree, a full dynamic run must
// report no races — the claim backs the server's fast path, which
// answers such submissions without running them.
func TestStaticRaceFreeMeansNoVerdicts(t *testing.T) {
	src := `var counter = 0
mutex m
fn worker() {
	lock(m)
	counter = counter + 1
	unlock(m)
}
fn main() {
	let a = spawn worker()
	let b = spawn worker()
	lock(m)
	counter = counter + 10
	let snap = counter
	unlock(m)
	join(a)
	join(b)
	print("c=", snap)
}`
	p := bytecode.MustCompile(src, "locked", bytecode.Options{})
	if f := sa.Analyze(p); !f.RaceFree {
		t.Fatalf("expected statically race-free, got %d candidates", len(f.Candidates))
	}
	res := core.Run(p, nil, nil, core.DefaultOptions())
	if len(res.Verdicts) != 0 || len(res.Errors) != 0 {
		t.Fatalf("dynamic run found races on a statically race-free program: %d verdicts, %d errors",
			len(res.Verdicts), len(res.Errors))
	}
}
