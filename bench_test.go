// Package repro's top-level benchmarks regenerate each table and figure
// of the paper's evaluation and measure the design-choice ablations,
// including sequential vs parallel classification. Run them with:
//
//	go test -bench=. -benchmem
//
// Absolute timings differ from the paper's (the substrate is the PIL VM,
// not the authors' Cloud9 testbed); the shapes to check — who wins, by
// what rough factor, how time scales with preemptions/branches — are
// asserted by the test suite and reported by cmd/paper-eval.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// BenchmarkTable1_ProgramInventory measures front-end cost: parsing and
// compiling the whole workload suite (the static side of Table 1).
func BenchmarkTable1_ProgramInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			_ = w.Compile()
		}
	}
}

// BenchmarkTable2_SpecViolatedRaces classifies the harmful races of
// Table 2: the SQLite deadlock and the ctrace (Fig 4) crash.
func BenchmarkTable2_SpecViolatedRaces(b *testing.B) {
	sq := workloads.SQLite()
	ct := workloads.Ctrace()
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(sq.Compile(), sq.Args, sq.Inputs, opts)
		core.Run(ct.Compile(), ct.Args, ct.Inputs, opts)
	}
}

// BenchmarkTable3_Classification runs the full 93-race classification
// sweep (Table 3).
func BenchmarkTable3_Classification(b *testing.B) {
	opts := core.DefaultOptions()
	for i := 0; i < b.N; i++ {
		s := eval.RunSuite(opts)
		if c, t := s.Accuracy(); c == 0 || t == 0 {
			b.Fatal("suite produced no verdicts")
		}
	}
}

// BenchmarkTable4_ClassificationTime measures per-race classification
// latency on one representative program (the quantity of Table 4).
func BenchmarkTable4_ClassificationTime(b *testing.B) {
	w := workloads.Bbuf()
	p := w.Compile()
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(p, w.Args, w.Inputs, opts)
	}
}

// BenchmarkTable5_AccuracyComparison measures the comparator classifiers
// (Record/Replay-Analyzer and the ad-hoc detector) against Portend on the
// same races (Table 5).
func BenchmarkTable5_AccuracyComparison(b *testing.B) {
	w := workloads.Bbuf()
	p := w.Compile()
	det := race.Detect(p, w.Args, w.Inputs, 3_000_000)
	cl := core.New(p, core.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range det.Reports {
			if _, err := cl.RecordReplayAnalyzer(rep, det.Trace); err != nil {
				b.Fatal(err)
			}
			if _, err := cl.AdHocDetector(rep, det.Trace); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7_TechniqueBreakdown measures the four cumulative analysis
// configurations (single-path → +ad-hoc → +multi-path → +multi-schedule)
// on one program (Fig 7).
func BenchmarkFig7_TechniqueBreakdown(b *testing.B) {
	w := workloads.Bbuf()
	p := w.Compile()
	cfgs := eval.Fig7Configs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			core.Run(p, w.Args, w.Inputs, cfg.Opts)
		}
	}
}

// BenchmarkFig9_Scalability measures one cell of the preemptions ×
// branches sweep (Fig 9); the full grid is rendered by cmd/paper-eval.
func BenchmarkFig9_Scalability(b *testing.B) {
	for _, cell := range []struct{ p, br int }{{20, 5}, {100, 10}, {400, 20}} {
		b.Run(benchName(cell.p, cell.br), func(b *testing.B) {
			src := workloads.ScaleSource(cell.p, cell.br)
			w := &workloads.Workload{Name: "scale", Source: src, Inputs: []int64{3}}
			p := w.Compile()
			opts := core.DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Run(p, nil, w.Inputs, opts)
			}
		})
	}
}

func benchName(p, b int) string {
	return "preempt=" + itoa(p) + "/branches=" + itoa(b)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig10_AccuracyVsK measures the cost of growing k = Mp×Ma
// (Fig 10's x-axis): k=1 vs the default k=10.
func BenchmarkFig10_AccuracyVsK(b *testing.B) {
	w := workloads.Ctrace()
	p := w.Compile()
	low := core.DefaultOptions()
	low.MultiPath = false
	low.MultiSchedule = false
	high := core.DefaultOptions()
	b.Run("k=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(p, w.Args, w.Inputs, low)
		}
	})
	b.Run("k=10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(p, w.Args, w.Inputs, high)
		}
	})
}

// BenchmarkAblation_StateVsOutput compares symbolic output comparison
// (Portend's criterion, §3.3.1) against concrete comparison (the
// ablated mode; see docs/classification.md).
func BenchmarkAblation_StateVsOutput(b *testing.B) {
	w := workloads.Bbuf()
	p := w.Compile()
	symbolic := core.DefaultOptions()
	concrete := core.DefaultOptions()
	concrete.SymbolicOutput = false
	b.Run("symbolic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(p, w.Args, w.Inputs, symbolic)
		}
	})
	b.Run("concrete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(p, w.Args, w.Inputs, concrete)
		}
	})
}

// BenchmarkAblation_ParallelClassify measures the "embarrassingly
// parallel" claim (§3.4) in isolation: detection is hoisted out so
// the arms time only the per-race classification, fanned across the
// engine's worker pool via sched.Map exactly as core.Run does.
func BenchmarkAblation_ParallelClassify(b *testing.B) {
	w := workloads.Pbzip2()
	p := w.Compile()
	det := race.Detect(p, w.Args, w.Inputs, 3_000_000)
	opts := core.DefaultOptions()
	opts.Parallel = 1
	classify := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			sched.Map(workers, len(det.Reports), func(j int) {
				cl := core.New(p, opts)
				if _, err := cl.Classify(det.Reports[j], det.Trace); err != nil {
					b.Error(err) // Error, not Fatal: fn runs on pool goroutines
				}
			})
		}
	}
	b.Run("serial", func(b *testing.B) { classify(b, 1) })
	b.Run("parallel", func(b *testing.B) { classify(b, sched.Workers(0)) })
}

// BenchmarkParallel_BigWorkloads compares the sequential engine against
// the worker pool end-to-end (detection + classification) on the
// biggest workloads — the wall-clock evidence behind the parallel
// engine. Detection is single-threaded in both modes, so the speedup is
// bounded by the classification share of each run; on a single-core
// host the wide pool instead measures the pool's overhead.
func BenchmarkParallel_BigWorkloads(b *testing.B) {
	widths := []int{1, sched.Workers(0)}
	if widths[1] == 1 {
		widths[1] = 4 // single-core host: still exercise a wide pool
	}
	for _, name := range []string{"pbzip2", "memcached", "ocean", "fmm"} {
		w := workloads.ByName(name)
		if w == nil {
			b.Fatalf("unknown workload %q", name)
		}
		p := w.Compile()
		for _, par := range widths {
			opts := core.DefaultOptions()
			opts.Parallel = par
			b.Run(fmt.Sprintf("%s/parallel=%d", name, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.Run(p, w.Args, w.Inputs, opts)
				}
			})
		}
	}
}

// BenchmarkVM_Interpretation measures raw interpreter throughput (the
// "Cloud9 running time" baseline of Table 4).
func BenchmarkVM_Interpretation(b *testing.B) {
	w := workloads.Fmm()
	p := w.Compile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := vm.NewState(p, w.Args, w.Inputs)
		res := vm.NewMachine(st, vm.NewRoundRobin()).Run(50_000_000)
		if res.Kind != vm.StopFinished {
			b.Fatalf("run: %v", res.Kind)
		}
	}
}

// BenchmarkVM_DetectionOverhead measures the happens-before detector's
// overhead over plain interpretation.
func BenchmarkVM_DetectionOverhead(b *testing.B) {
	w := workloads.Fmm()
	p := w.Compile()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := vm.NewState(p, w.Args, w.Inputs)
			vm.NewMachine(st, vm.NewRoundRobin()).Run(50_000_000)
		}
	})
	b.Run("detector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			race.Detect(p, w.Args, w.Inputs, 50_000_000)
		}
	})
}

// BenchmarkCheckpoint_SharedReplay measures the shared replay-checkpoint
// store on the workload shape it exists for: many races strung along one
// long trace, where every classification without reuse re-interprets the
// whole prefix (O(races × prefix)) and with reuse resumes from the
// nearest prior race's snapshot (O(prefix)). The caches-off arm
// (Options.NoCache) is the honest baseline — identical verdicts, no
// reuse.
func BenchmarkCheckpoint_SharedReplay(b *testing.B) {
	src := workloads.ManyRaceSource(24, 8000)
	w := &workloads.Workload{Name: "many-race", Source: src, Inputs: []int64{3}}
	p := w.Compile()
	for _, noCache := range []bool{false, true} {
		name := "caches=on"
		if noCache {
			name = "caches=off"
		}
		opts := core.DefaultOptions()
		opts.NoCache = noCache
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.Run(p, nil, w.Inputs, opts)
				if len(res.Errors) != 0 {
					b.Fatalf("classification errors: %v", res.Errors)
				}
			}
		})
	}
}

// BenchmarkCheckpoint_SymbolicPrefix measures the replay checkpoint store
// on the input-before-race shape: the input() read (and input-dependent
// branching) precedes every race, so every pre-race replay prefix has
// consumed a symbolic read and every multi-path exploration replays
// symbolically from the root. What the caches-on arm still saves is the
// replays to each race, which resume from the store. The caches-off arm
// replays every race's prefix from the root — identical verdicts, no
// reuse.
func BenchmarkCheckpoint_SymbolicPrefix(b *testing.B) {
	src := workloads.SymPrefixRaceSource(16, 6, 6000)
	w := &workloads.Workload{Name: "sym-prefix", Source: src, Inputs: []int64{3}}
	p := w.Compile()
	for _, noCache := range []bool{false, true} {
		name := "caches=on"
		if noCache {
			name = "caches=off"
		}
		opts := core.DefaultOptions()
		opts.NoCache = noCache
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.Run(p, nil, w.Inputs, opts)
				if len(res.Errors) != 0 {
					b.Fatalf("classification errors: %v", res.Errors)
				}
			}
		})
	}
}

// BenchmarkStaticPrune measures the static dead-item prune on the
// workload shape it exists for: nested tainted guards gate the racy
// region, so multi-path exploration forks one bypass sibling per guard
// and every sibling runs a long concrete tail to completion before
// being discarded. The prune skips those siblings up front — the test
// suite pins that it removes ≥20% of worklist items on these shapes
// with byte-identical verdicts; this benchmark prices the saving. The
// prune=off arm is the honest baseline.
func BenchmarkStaticPrune(b *testing.B) {
	for _, shape := range []struct {
		name              string
		depth, races, pad int
	}{
		{"deep", 6, 2, 4000},
		{"wide", 3, 4, 4000},
	} {
		src := workloads.StaticPruneSource(shape.depth, shape.races, shape.pad)
		w := &workloads.Workload{Name: "static-prune-" + shape.name, Source: src, Inputs: []int64{100}}
		p := w.Compile()
		for _, prune := range []bool{true, false} {
			name := shape.name + "/prune=on"
			if !prune {
				name = shape.name + "/prune=off"
			}
			opts := core.DefaultOptions()
			opts.NoStaticPrune = !prune
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := core.Run(p, nil, w.Inputs, opts)
					if len(res.Errors) != 0 {
						b.Fatalf("classification errors: %v", res.Errors)
					}
				}
			})
		}
	}
}

// BenchmarkVM_Checkpoint measures State.Clone, the primitive behind
// Algorithm 1's checkpoints and Algorithm 2's forking.
func BenchmarkVM_Checkpoint(b *testing.B) {
	w := workloads.Memcached()
	p := w.Compile()
	st := vm.NewState(p, w.Args, w.Inputs)
	vm.NewMachine(st, vm.NewRoundRobin()).Run(5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Clone()
	}
}
