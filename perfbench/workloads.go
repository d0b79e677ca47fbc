package main

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"

	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
	"repro/portend"
)

// workload is one set of programs the benchmark runs, and the path it
// runs them through.
type workload struct {
	name string
	// service workloads go through server.Client against an in-process
	// portendd; the others through the portend facade.
	service bool
	// programs generates the workload's inputs from the seed.
	programs func(seed uint64) []program
	// loads and bypasses name the layers the workload exercises and the
	// ones it predicts no change for.
	loads, bypasses string
}

var benchWorkloads = []workload{
	{
		name:     "paper-suite",
		programs: paperSuite,
		loads:    "core Algorithm 1 enforcement to EnforceBudget under vm SpinTrack; race detection",
		bypasses: "dstore and server; fusion (off under SpinTrack); explore, solver and ckpt do little",
	},
	{
		name:     "long-trace",
		programs: longTrace,
		loads:    "race detection with checkpoint deposits; ckpt and symbolic resume; explore; solver cache; sa prune",
		bypasses: "enforcement timeouts (every race is a benign redundant write); dstore and server",
	},
	{
		name:     "service-corpus",
		service:  true,
		programs: serviceCorpus,
		loads:    "server HTTP/NDJSON and admission; sa lint; bytecode compile; tier registry; dstore snapshot+fsync and restore",
		bypasses: "none of the service path; engine work per request is small",
	},
}

func workloadByName(name string) *workload {
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			return &benchWorkloads[i]
		}
	}
	return nil
}

// program is one analysis unit: PIL source, its run coordinates, and
// the class every verdict on each racy global must have.
type program struct {
	name         string
	source       string
	args, inputs []int64
	want         map[string]portend.Class
	// onePerLabel holds when each labeled global carries exactly one
	// race (the Table 3 workloads and the long-trace shapes); corpus
	// programs may race on one global at several line pairs.
	onePerLabel bool
}

// paperSuite is the Table 3 sweep: the 11 evaluation workloads with
// their canonical arguments and inputs. It ignores the seed. The labels
// are the expected Portend classes of a run without workload predicates,
// which is why the programs are analyzed as source rather than as
// portend.Workload targets (those attach fmm's predicate).
func paperSuite(uint64) []program {
	var out []program
	for _, w := range workloads.All() {
		p := labeled(w)
		p.onePerLabel = true
		out = append(out, p)
	}
	return out
}

// serviceCorpus is the labeled corpus at the seed: the curated programs
// plus four generated instances per family.
func serviceCorpus(seed uint64) []program {
	var out []program
	for _, p := range corpus.Suite(seed, 4) {
		out = append(out, labeled(p.Workload))
	}
	return out
}

func labeled(w *workloads.Workload) program {
	want := make(map[string]portend.Class, len(w.Truth))
	for g, e := range w.Truth {
		want[g] = portend.Class(e.Portend.String())
	}
	return program{name: w.Name, source: w.Source, args: w.Args, inputs: w.Inputs, want: want}
}

// longTrace is the long-trace shapes of the repository's Go benchmarks —
// many-race, sym-prefix, static-prune in its deep and wide forms, and
// Fig 9's largest scalability cell — with their trace lengths (compute
// padding, preemption points) drawn from the seed within 5% of those
// benchmarks' parameters. Race counts stay fixed, so the seed changes
// the traces and not the amount of classification. An odd number of
// programs puts the latency median inside one program's samples rather
// than between two programs'. Every race is a benign redundant write,
// so each must come back k-witness.
func longTrace(seed uint64) []program {
	r := rand.New(rand.NewPCG(seed, 0x6c6f6e67))
	near := func(n int) int { return n - n/20 + r.IntN(n/10+1) }
	shape := func(name, src string, input int64, globals ...string) program {
		want := make(map[string]portend.Class, len(globals))
		for _, g := range globals {
			want[g] = portend.KWitnessHarmless
		}
		return program{name: name, source: src, inputs: []int64{input}, want: want, onePerLabel: true}
	}
	numbered := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("g%d", i)
		}
		return out
	}
	return []program{
		shape("many-race", workloads.ManyRaceSource(24, near(8000)), 3, numbered(24)...),
		shape("sym-prefix", workloads.SymPrefixRaceSource(16, 6, near(6000)), 3, numbered(16)...),
		shape("static-prune-deep", workloads.StaticPruneSource(6, 2, near(4000)), 100, numbered(2)...),
		shape("static-prune-wide", workloads.StaticPruneSource(3, 4, near(4000)), 100, numbered(4)...),
		shape("fig9-scale", workloads.ScaleSource(near(400), 20), 3, "g"),
	}
}

// verdictID is the part of a verdict the labels constrain.
type verdictID struct {
	object string // racy global, or "heap object"
	class  portend.Class
}

func idOf(v portend.Verdict) verdictID { return verdictID{v.Race.Object, v.Class} }

// misses scores one analysis against the program's labels. A miss is a
// race that failed to classify, a verdict with the wrong class or on an
// unlabeled object, a label no verdict covered, and, where each label
// names one race, a second verdict on the same object. The races
// attempted are the ones the analysis reported plus the labels it left
// uncovered.
func (p *program) misses(got []verdictID, raceErrs int) (miss, attempted int) {
	miss, attempted = raceErrs, raceErrs+len(got)
	seen := make(map[string]bool, len(got))
	for _, v := range got {
		want, ok := p.want[v.object]
		if !ok || v.class != want || (p.onePerLabel && seen[v.object]) {
			miss++
		}
		seen[v.object] = true
	}
	for g := range p.want {
		if !seen[g] {
			miss++
			attempted++
		}
	}
	return miss, attempted
}

// plantWrongLabel flips the first label of the first labeled program, so
// a correct engine must now miss it.
func plantWrongLabel(progs []program) {
	for _, p := range progs {
		if len(p.want) == 0 {
			continue
		}
		g := slices.Min(slices.Collect(maps.Keys(p.want)))
		if p.want[g] == portend.KWitnessHarmless {
			p.want[g] = portend.SpecViolated
		} else {
			p.want[g] = portend.KWitnessHarmless
		}
		return
	}
}
