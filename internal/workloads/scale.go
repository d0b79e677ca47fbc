package workloads

import (
	"fmt"
	"strings"
)

// ScaleSource generates the parametric program used for the Fig 9
// scalability study: classification time as a function of the number of
// preemption points in the schedule and the number of branches that
// depend on symbolic input.
//
// The program contains one benign data race (a redundant write, so the
// classifier runs the full multi-path multi-schedule analysis), a loop of
// `preemptions` yield points that lengthens the recorded schedule, and
// `branches` input-dependent branches that the symbolic exploration must
// reason about.
func ScaleSource(preemptions, branches int) string {
	var b strings.Builder
	b.WriteString(`
// scale: parametric workload for the Fig 9 sweep.
var g = 0
var acc = 0
fn peer() {
	g = 5
}
fn main() {
	let x = input()
	let t = spawn peer()
	yield()
	g = 5
`)
	fmt.Fprintf(&b, "\tfor i = 0, %d { yield() }\n", preemptions)
	b.WriteString("\tjoin(t)\n")
	fmt.Fprintf(&b, "\tfor i = 0, %d {\n", branches)
	b.WriteString("\t\tif x > i { acc = acc + 1 }\n\t}\n")
	b.WriteString("\tprint(\"acc=\", acc)\n}\n")
	return b.String()
}

// ManyRaceSource generates the workload behind the checkpoint-store
// benchmarks and tests: a `pad`-iteration compute prefix followed by
// `races` independent benign races on distinct globals. Classifying any
// of the races from the initial state must first re-interpret the whole
// prefix, so the analysis pays O(races × pad) interpretation without
// checkpoint reuse but only O(pad) with it — the "stop re-replaying the
// world" shape the shared replay store is built for. The single input
// read sits after the races, so the pre-race checkpoints are symbolic-
// safe and multi-path exploration resumes from the store too.
func ManyRaceSource(races, pad int) string {
	var b strings.Builder
	b.WriteString("// many-race: parametric workload for the checkpoint-store benchmarks.\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "var g%d = 0\n", i)
	}
	b.WriteString("var acc = 0\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "fn w%d() {\n\tg%d = 7\n}\n", i, i)
	}
	b.WriteString("fn main() {\n")
	fmt.Fprintf(&b, "\tfor i = 0, %d { acc = acc + 1 }\n", pad)
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "\tlet t%d = spawn w%d()\n\tyield()\n\tg%d = 7\n\tjoin(t%d)\n", i, i, i, i)
	}
	b.WriteString("\tlet x = input()\n\tprint(\"acc=\", acc + x)\n}\n")
	return b.String()
}

// StaticPruneSource generates the workload behind the static-prune
// benchmarks and tests: `depth` nested input-dependent guards gate a
// region of `races` benign races, and the program's tail touches
// nothing shared. Multi-path exploration forks a bypass sibling at
// every guard; each sibling resumes on the guard's skip edge, from
// which neither the racy globals nor any further symbolic branch is
// statically reachable. Those siblings are exactly what the static
// prune can prove dead — run with pruning off they execute to
// completion and are discarded without contributing to any verdict, so
// skipping them changes instruction counts and nothing else. A nonzero
// `pad` appends a concrete compute tail every path (mainline and
// bypass alike) must execute, which is what makes each pruned sibling
// worth real interpretation time in the benchmarks. Analyze with
// inputs pinned above depth (e.g. 100) so the recorded run takes every
// guard and reaches the races.
func StaticPruneSource(depth, races, pad int) string {
	var b strings.Builder
	b.WriteString("// static-prune: nested tainted guards gating a racy region.\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "var g%d = 0\n", i)
	}
	b.WriteString("var acc = 0\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "fn w%d() {\n\tg%d = 7\n}\n", i, i)
	}
	b.WriteString("fn main() {\n\tlet x = input()\n")
	for d := 0; d < depth; d++ {
		fmt.Fprintf(&b, "%sif x > %d {\n", strings.Repeat("\t", d+1), d+1)
	}
	indent := strings.Repeat("\t", depth+1)
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "%slet t%d = spawn w%d()\n%syield()\n%sg%d = 7\n%sjoin(t%d)\n",
			indent, i, i, indent, indent, i, indent, i)
	}
	for d := depth - 1; d >= 0; d-- {
		fmt.Fprintf(&b, "%s}\n", strings.Repeat("\t", d+1))
	}
	if pad > 0 {
		fmt.Fprintf(&b, "\tfor i = 0, %d { acc = acc + 1 }\n", pad)
	}
	b.WriteString("\tprint(\"done\")\n}\n")
	return b.String()
}

// SymPrefixRaceSource is ManyRaceSource with the input() moved ahead of
// the races: after a `pad`-iteration compute prefix, the `input()` read
// and `branches` input-dependent branches execute, and only then the
// races. With symbolic inputs enabled, every pre-race replay state has
// consumed a symbolic read, so no replay checkpoint can seed multi-path
// exploration here: every race's exploration replays symbolically from
// the root, while its concrete replay still resumes from the store. This
// is the shape behind the input-first tests and the
// Checkpoint_SymbolicPrefix benchmark.
func SymPrefixRaceSource(races, branches, pad int) string {
	var b strings.Builder
	b.WriteString("// sym-prefix: input() and symbolic branches before every race.\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "var g%d = 0\n", i)
	}
	b.WriteString("var acc = 0\n")
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "fn w%d() {\n\tg%d = 7\n}\n", i, i)
	}
	b.WriteString("fn main() {\n")
	fmt.Fprintf(&b, "\tfor i = 0, %d { acc = acc + 1 }\n", pad)
	b.WriteString("\tlet x = input()\n")
	fmt.Fprintf(&b, "\tfor i = 0, %d {\n\t\tif x > i { acc = acc + 1 }\n\t}\n", branches)
	for i := 0; i < races; i++ {
		fmt.Fprintf(&b, "\tlet t%d = spawn w%d()\n\tyield()\n\tg%d = 7\n\tjoin(t%d)\n", i, i, i, i)
	}
	b.WriteString("\tprint(\"acc=\", acc + x)\n}\n")
	return b.String()
}
