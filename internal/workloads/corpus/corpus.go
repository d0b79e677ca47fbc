// Package corpus is the labeled evaluation corpus: a DataRaceBench-style
// suite of small PIL programs, each annotated with per-race ground truth,
// that measures Portend's classification *accuracy* at a scale the seven
// hand-ported Table 1 workloads cannot (DataRaceBench V1.4.1 — ~200
// labeled kernels — is the field's standard for exactly this, see
// PAPERS.md).
//
// The corpus has two halves:
//
//   - a curated set (curated.go): one or two hand-written programs per
//     idiom family, including the shapes that need care — deadlocks,
//     out-of-bounds crashes, double frees, solver-blind output gates;
//   - a generated set (generate.go): a deterministic, seedable generator
//     that stamps out parameter-varied instances of each family template,
//     labels included.
//
// Both halves reuse the workloads.Workload + workloads.Expected label
// schema, so the corpus runs through exactly the same harness as the
// paper's tables. Family names the idiom a program exercises; KnownMiss
// marks the globals where Portend's verdict is expected to differ from
// ground truth (the ocean-style solver-blind gate is the only such
// idiom today). See docs/evaluation.md for the taxonomy and how to add
// a program.
package corpus

import (
	"fmt"

	"repro/internal/workloads"
)

// Family names the synchronization/race idiom a corpus program exercises.
type Family string

// The idiom families of the corpus taxonomy. Each maps to one dominant
// expected verdict class; several also carry secondary races of other
// classes (e.g. the spin flag guarding a crash-index program is itself a
// singleOrd race).
const (
	// FamAdhocFlag: data published behind an ad-hoc "ready" flag that a
	// consumer spins on — the flag and the data it guards are singleOrd.
	FamAdhocFlag Family = "adhoc-flag"
	// FamDCL: double-checked locking — the unlocked fast-path read is a
	// k-witness harmless race.
	FamDCL Family = "dcl"
	// FamRedundantWrite: racing threads store the same value (k-witness,
	// states same).
	FamRedundantWrite Family = "redundant-write"
	// FamBenignGauge: a monitor samples a progress gauge another thread
	// updates; every observable value is valid (k-witness).
	FamBenignGauge Family = "benign-gauge"
	// FamStatsOutput: unsynchronized stats counters whose values reach
	// the output — sometimes only on a non-recorded input path (outDiff).
	FamStatsOutput Family = "stats-output"
	// FamStatsSilent: racy bookkeeping that never reaches the output
	// (k-witness, states differ).
	FamStatsSilent Family = "stats-silent"
	// FamDeadlock: a racy init flag whose stale read sends a consumer
	// into a condition wait that is never signalled (specViol/deadlock).
	FamDeadlock Family = "deadlock"
	// FamCrashIndex: a racy array index that is out of range until a
	// fixer thread's write lands (specViol/crash).
	FamCrashIndex Family = "crash-index"
	// FamDoubleFree: a racy "already freed" guard around free()
	// (specViol/crash).
	FamDoubleFree Family = "double-free"
	// FamLockFreeQueue: lock-free queue bookkeeping — racy head/count
	// updates that reach the output (outDiff) behind a singleOrd
	// non-empty flag.
	FamLockFreeQueue Family = "lockfree-queue"
	// FamBarrierHandoff: threads race on a counter before a barrier
	// hand-off publishes it to the output (outDiff), alongside a
	// benign-value write (k-witness).
	FamBarrierHandoff Family = "barrier-handoff"
	// FamCondvarHandoff: a properly signalled condvar hand-off with one
	// benign early read racing the publisher (k-witness).
	FamCondvarHandoff Family = "condvar-handoff"
	// FamSymPrefix: input() and input-dependent branches precede every
	// race — the shape where no multi-path exploration can resume from a
	// replay checkpoint (races are redundant writes: k-witness).
	FamSymPrefix Family = "sym-prefix"
	// FamSolverBlind: the racy value reaches the output only behind an
	// input gate the solver cannot satisfy (ocean §5.4): truth outDiff,
	// Portend k-witness — the corpus's known-miss idiom.
	FamSolverBlind Family = "solver-blind"
)

// Families returns the taxonomy in canonical order.
func Families() []Family {
	return []Family{
		FamAdhocFlag, FamDCL, FamRedundantWrite, FamBenignGauge,
		FamStatsOutput, FamStatsSilent, FamDeadlock, FamCrashIndex,
		FamDoubleFree, FamLockFreeQueue, FamBarrierHandoff,
		FamCondvarHandoff, FamSymPrefix, FamSolverBlind,
	}
}

// Program is one labeled corpus entry. It embeds the workload schema, so
// Compile/ExpectedFor/LOC and the Truth label map work exactly as they do
// for the Table 1 workloads.
type Program struct {
	*workloads.Workload

	// Family is the idiom this program exercises.
	Family Family

	// Generated marks generator output (false for curated programs).
	Generated bool

	// Seed is the generator seed that produced the program (0 for
	// curated entries).
	Seed uint64

	// KnownMiss names the racy globals whose expected Portend verdict
	// deliberately differs from ground truth (Expected.Portend !=
	// Expected.Truth). The label invariant — checked by the corpus unit
	// tests — is that the two sets coincide exactly.
	KnownMiss map[string]bool
}

// Defaults for the shipped corpus; cmd/paper-eval exposes both as flags.
const (
	// DefaultSeed seeds the generated half of the default suite.
	DefaultSeed uint64 = 6
	// DefaultPerFamily is how many generated instances each family
	// template contributes to the default suite.
	DefaultPerFamily = 4
)

// Default returns the shipped corpus: every curated program plus the
// generated set at the default seed and width. This is the suite the
// CORPUS_*.json baselines and the CI accuracy gate run.
func Default() []*Program {
	return Suite(DefaultSeed, DefaultPerFamily)
}

// Suite returns the curated programs followed by perFamily generated
// instances of every generator template at the given seed. The result is
// fully deterministic in (seed, perFamily).
func Suite(seed uint64, perFamily int) []*Program {
	out := Curated()
	out = append(out, Generate(seed, perFamily)...)
	return out
}

// ByFamily filters a corpus to one family, preserving order.
func ByFamily(progs []*Program, f Family) []*Program {
	var out []*Program
	for _, p := range progs {
		if p.Family == f {
			out = append(out, p)
		}
	}
	return out
}

// newProgram assembles a corpus entry, defaulting KnownMiss to the empty
// set so label-invariant checks can treat the field as always present.
func newProgram(name string, fam Family, source string, truth map[string]workloads.Expected) *Program {
	return &Program{
		Workload: &workloads.Workload{
			Name:   name,
			Source: source,
			Truth:  truth,
		},
		Family:    fam,
		KnownMiss: map[string]bool{},
	}
}

// genName names a generated program: stable across seeds (content varies
// with the seed, identity does not), so baseline diffs track accuracy
// shifts rather than renames.
func genName(fam Family, i int) string {
	return fmt.Sprintf("gen-%s-%02d", fam, i)
}
