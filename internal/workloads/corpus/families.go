package corpus

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// This file holds one parameterized builder per idiom family. The
// builders are shared by the curated set (hand-picked parameters) and the
// generator (rng-drawn parameters), so every corpus program — curated or
// generated — carries labels produced by the same template logic.
//
// Each template mirrors a shape the engine is already validated on by the
// Table 1 workloads (the ad-hoc flags of memcached, the crash index and
// double free of pbzip2, the gated counters of bbuf, the silent
// bookkeeping of ctrace, the deadlock of sqlite, the solver-blind gate of
// ocean), so the expected Portend verdict is known, not guessed.

func sleeps(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("\tsleep(1)\n")
	}
}

// adhocFlag: values published behind an ad-hoc ready flag a consumer
// spins on. The flag and every datum it guards are singleOrd.
func adhocFlag(name string, vals []int64, sleepN int) *Program {
	var b strings.Builder
	b.WriteString("// adhoc-flag: data published behind an ad-hoc ready flag.\n")
	var sum int64
	for i := range vals {
		fmt.Fprintf(&b, "var d%d = 0\n", i+1)
		sum += vals[i]
	}
	b.WriteString("var ready = 0\nfn producer() {\n")
	for i, v := range vals {
		fmt.Fprintf(&b, "\td%d = %d\n", i+1, v)
	}
	sleeps(&b, sleepN)
	b.WriteString("\tready = 1\n}\nfn consumer() {\n\twhile ready == 0 { usleep(50) }\n\tlet sum = ")
	for i := range vals {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "d%d", i+1)
	}
	fmt.Fprintf(&b, "\n\tassert(sum == %d)\n}\n", sum)
	b.WriteString("fn main() {\n\tlet p = spawn producer()\n\tlet c = spawn consumer()\n\tjoin(p)\n\tjoin(c)\n\tprint(\"published\")\n}\n")

	truth := map[string]workloads.Expected{
		"ready": {Truth: core.SingleOrdering, Portend: core.SingleOrdering},
	}
	for i := range vals {
		truth[fmt.Sprintf("d%d", i+1)] = workloads.Expected{Truth: core.SingleOrdering, Portend: core.SingleOrdering}
	}
	return newProgram(name, FamAdhocFlag, b.String(), truth)
}

// dcl: double-checked locking; the unlocked fast-path read races the
// locked initializing write, but every interleaving initializes once.
func dcl(name string, users int, val int64) *Program {
	var b strings.Builder
	b.WriteString("// dcl: double-checked locking.\nvar resource = 0\nmutex mu\nfn get() {\n\tlet r = resource\n\tif r == 0 {\n\t\tlock(mu)\n")
	fmt.Fprintf(&b, "\t\tif resource == 0 { resource = %d }\n", val)
	fmt.Fprintf(&b, "\t\tunlock(mu)\n\t\tr = %d\n\t}\n\treturn r\n}\n", val)
	fmt.Fprintf(&b, "fn user() {\n\tlet v = get()\n\tassert(v == %d)\n}\n", val)
	b.WriteString("fn main() {\n")
	for i := 0; i < users; i++ {
		fmt.Fprintf(&b, "\tlet u%d = spawn user()\n", i)
	}
	for i := 0; i < users; i++ {
		fmt.Fprintf(&b, "\tjoin(u%d)\n", i)
	}
	b.WriteString("\tprint(\"dcl done\")\n}\n")
	return newProgram(name, FamDCL, b.String(), map[string]workloads.Expected{
		"resource": {Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless},
	})
}

// redundantWrite: racing threads store the same value, which is printed —
// every ordering yields the same state and output.
func redundantWrite(name string, initial, val int64, writers int) *Program {
	var b strings.Builder
	fmt.Fprintf(&b, "// redundant-write: racing threads store the same value.\nvar gen = %d\n", initial)
	for i := 0; i < writers; i++ {
		fmt.Fprintf(&b, "fn reset%d() {\n\tgen = %d\n}\n", i, val)
	}
	b.WriteString("fn main() {\n")
	for i := 0; i < writers; i++ {
		fmt.Fprintf(&b, "\tlet t%d = spawn reset%d()\n", i, i)
	}
	for i := 0; i < writers; i++ {
		fmt.Fprintf(&b, "\tjoin(t%d)\n", i)
	}
	b.WriteString("\tprint(\"gen=\", gen)\n}\n")
	return newProgram(name, FamRedundantWrite, b.String(), map[string]workloads.Expected{
		"gen": {Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless},
	})
}

// benignGauge: a monitor samples a progress gauge a worker updates; every
// observable value is valid and nothing reaches the output.
func benignGauge(name string, initial, update int64) *Program {
	var b strings.Builder
	fmt.Fprintf(&b, "// benign-gauge: all sampled values are valid.\nvar gauge = %d\nvar sample = 0\n", initial)
	fmt.Fprintf(&b, "fn worker() {\n\tgauge = %d\n}\n", update)
	b.WriteString("fn monitor() {\n\tsample = gauge\n}\nfn main() {\n\tlet w = spawn worker()\n\tlet m = spawn monitor()\n\tjoin(w)\n\tjoin(m)\n\tprint(\"gauge done\")\n}\n")
	return newProgram(name, FamBenignGauge, b.String(), map[string]workloads.Expected{
		"gauge": {Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless},
	})
}

// statsOutput: counters bumped without synchronization by two workers,
// printed at the end — directly, or (gated=true) only on a non-recorded
// input path that multi-path analysis must discover, as in bbuf.
func statsOutput(name string, counters int, gated bool) *Program {
	var b strings.Builder
	b.WriteString("// stats-output: racy counters whose values reach the output.\n")
	for i := 0; i < counters; i++ {
		fmt.Fprintf(&b, "var c%d = 0\n", i+1)
	}
	for _, w := range []string{"wa", "wb"} {
		fmt.Fprintf(&b, "fn %s() {\n", w)
		for i := 0; i < counters; i++ {
			fmt.Fprintf(&b, "\tc%d = c%d + 1\n", i+1, i+1)
		}
		b.WriteString("}\n")
	}
	b.WriteString("fn main() {\n")
	if gated {
		b.WriteString("\tlet verbose = input()\n")
	}
	b.WriteString("\tlet a = spawn wa()\n\tlet z = spawn wb()\n\tjoin(a)\n\tjoin(z)\n")
	prints := func(indent string) {
		for i := 0; i < counters; i++ {
			fmt.Fprintf(&b, "%sprint(\"c%d=\", c%d)\n", indent, i+1, i+1)
		}
	}
	if gated {
		b.WriteString("\tif verbose > 0 {\n")
		prints("\t\t")
		b.WriteString("\t} else {\n\t\tprint(\"stats ok\")\n\t}\n")
	} else {
		prints("\t")
	}
	b.WriteString("}\n")

	truth := map[string]workloads.Expected{}
	for i := 0; i < counters; i++ {
		truth[fmt.Sprintf("c%d", i+1)] = workloads.Expected{Truth: core.OutputDiffers, Portend: core.OutputDiffers}
	}
	p := newProgram(name, FamStatsOutput, b.String(), truth)
	if gated {
		p.Inputs = []int64{0}
	}
	return p
}

// statsSilent: two threads write different values to bookkeeping globals
// that never reach the output — harmless, but the post-race states
// differ.
func statsSilent(name string, globals int, va, vb int64) *Program {
	var b strings.Builder
	b.WriteString("// stats-silent: racy bookkeeping that never reaches the output.\n")
	for i := 0; i < globals; i++ {
		fmt.Fprintf(&b, "var m%d = 0\n", i+1)
	}
	b.WriteString("fn wa() {\n")
	for i := 0; i < globals; i++ {
		fmt.Fprintf(&b, "\tm%d = %d\n", i+1, va)
	}
	b.WriteString("}\nfn wb() {\n")
	for i := 0; i < globals; i++ {
		fmt.Fprintf(&b, "\tm%d = %d\n", i+1, vb)
	}
	b.WriteString("}\nfn main() {\n\tlet a = spawn wa()\n\tlet z = spawn wb()\n\tjoin(a)\n\tjoin(z)\n\tprint(\"silent done\")\n}\n")

	truth := map[string]workloads.Expected{}
	for i := 0; i < globals; i++ {
		truth[fmt.Sprintf("m%d", i+1)] = workloads.Expected{
			Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless, StatesDiffer: true,
		}
	}
	return newProgram(name, FamStatsSilent, b.String(), truth)
}

// deadlockFlag: the sqlite shape — a consumer checks an init flag without
// synchronization; on the stale path it waits for a signal that is never
// sent while main blocks in join.
func deadlockFlag(name string, auxIters int) *Program {
	var b strings.Builder
	b.WriteString(`// deadlock: stale init-flag read waits for a signal never sent.
var initFlag = 0
var ready = 0
var work = 0
mutex mu
cond done
fn consumer() {
	let seen = initFlag
	if seen == 0 {
		lock(mu)
		while ready == 0 { wait(done, mu) }
		unlock(mu)
	}
	work = work + 1
	print("consumer ran")
}
fn aux() {
	let local = 0
`)
	fmt.Fprintf(&b, "\tfor i = 0, %d { local = local + i }\n", auxIters)
	b.WriteString(`	print("aux ", local)
}
fn main() {
	let c = spawn consumer()
	initFlag = 1
	let a = spawn aux()
	join(c)
	join(a)
	print("shutdown")
}
`)
	return newProgram(name, FamDeadlock, b.String(), map[string]workloads.Expected{
		"initFlag": {Truth: core.SpecViolated, Portend: core.SpecViolated, Consequence: core.ConsDeadlock},
	})
}

// crashIndex: a slot index starts out of range; a fixer thread writes an
// in-range value, racing the worker that uses it. The alternate ordering
// indexes out of bounds and crashes. The done flag the worker spins on is
// its own singleOrd race.
func crashIndex(name string, size int, fixVal, storeVal int64, sleepN int) *Program {
	var b strings.Builder
	fmt.Fprintf(&b, "// crash-index: racy slot index, out of range until fixed.\nvar idx = %d\nvar slots[%d]\nvar done = 0\n", size, size)
	fmt.Fprintf(&b, "fn fixer() {\n\tidx = %d\n}\n", fixVal)
	fmt.Fprintf(&b, "fn worker() {\n\twhile done == 0 { usleep(50) }\n\tslots[idx] = %d\n}\n", storeVal)
	b.WriteString("fn main() {\n\tlet f = spawn fixer()\n\tlet w = spawn worker()\n")
	sleeps(&b, sleepN)
	b.WriteString("\tdone = 1\n\tjoin(f)\n\tjoin(w)\n\tprint(\"stored\")\n}\n")
	return newProgram(name, FamCrashIndex, b.String(), map[string]workloads.Expected{
		"idx":  {Truth: core.SpecViolated, Portend: core.SpecViolated, Consequence: core.ConsCrash},
		"done": {Truth: core.SingleOrdering, Portend: core.SingleOrdering},
	})
}

// doubleFree: a racy "still allocated" guard around free(). The recorded
// ordering frees once; the alternate ordering passes the stale guard and
// frees twice — a crash.
func doubleFree(name string, pad, size int) *Program {
	var b strings.Builder
	fmt.Fprintf(&b, "// double-free: racy liveness guard around free().\nvar bufLive = 1\nvar buf = 0\n")
	b.WriteString("fn release() {\n\tif bufLive == 1 {\n\t\tbufLive = 0\n\t\tfree(buf)\n\t}\n}\nfn early() {\n\trelease()\n}\nfn late() {\n\tlet local = 0\n")
	fmt.Fprintf(&b, "\tfor i = 0, %d { local = local + 1 }\n", pad)
	b.WriteString("\trelease()\n}\nfn main() {\n")
	fmt.Fprintf(&b, "\tbuf = alloc(%d)\n", size)
	b.WriteString("\tlet a = spawn early()\n\tlet z = spawn late()\n\tjoin(a)\n\tjoin(z)\n\tprint(\"freed\")\n}\n")
	return newProgram(name, FamDoubleFree, b.String(), map[string]workloads.Expected{
		"bufLive": {Truth: core.SpecViolated, Portend: core.SpecViolated, Consequence: core.ConsCrash},
	})
}

// lockFreeQueue: two enqueuers race on the head counter (printed:
// outDiff) while a dequeuer spins on a non-empty flag (singleOrd) before
// consuming.
func lockFreeQueue(name string, sleepN int) *Program {
	var b strings.Builder
	b.WriteString("// lockfree-queue: racy enqueue counter behind a non-empty flag.\nvar head = 0\nvar taken = 0\nvar nonEmpty = 0\nfn enqA() {\n\thead = head + 1\n")
	sleeps(&b, sleepN)
	b.WriteString("\tnonEmpty = 1\n}\nfn enqB() {\n\thead = head + 1\n}\nfn deq() {\n\twhile nonEmpty == 0 { usleep(50) }\n\ttaken = taken + 1\n}\n")
	b.WriteString("fn main() {\n\tlet a = spawn enqA()\n\tlet z = spawn enqB()\n\tlet d = spawn deq()\n\tjoin(a)\n\tjoin(z)\n\tjoin(d)\n\tprint(\"head=\", head)\n\tprint(\"taken=\", taken)\n}\n")
	return newProgram(name, FamLockFreeQueue, b.String(), map[string]workloads.Expected{
		"head":     {Truth: core.OutputDiffers, Portend: core.OutputDiffers},
		"nonEmpty": {Truth: core.SingleOrdering, Portend: core.SingleOrdering},
	})
}

// barrierHandoff: two workers race on a counter (printed after the
// barrier: outDiff) and on a benign same-value mark (k-witness) before
// handing off to main at a barrier.
func barrierHandoff(name string, mark int64) *Program {
	var b strings.Builder
	b.WriteString("// barrier-handoff: racy counter published to main at a barrier.\nbarrier bar(3)\nvar cnt = 0\nvar mark = 0\n")
	for _, w := range []string{"wa", "wb"} {
		fmt.Fprintf(&b, "fn %s() {\n\tcnt = cnt + 1\n\tmark = %d\n\tbarrier_wait(bar)\n}\n", w, mark)
	}
	b.WriteString("fn main() {\n\tlet a = spawn wa()\n\tlet z = spawn wb()\n\tbarrier_wait(bar)\n\tprint(\"cnt=\", cnt)\n\tjoin(a)\n\tjoin(z)\n}\n")
	return newProgram(name, FamBarrierHandoff, b.String(), map[string]workloads.Expected{
		"cnt":  {Truth: core.OutputDiffers, Portend: core.OutputDiffers},
		"mark": {Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless},
	})
}

// condvarHandoff: a correctly signalled condvar hand-off; the only race
// is a benign early peek at the payload before the consumer blocks.
func condvarHandoff(name string, val int64) *Program {
	var b strings.Builder
	b.WriteString("// condvar-handoff: proper hand-off with one benign early peek.\nvar data = 0\nvar ready = 0\nmutex mu\ncond cv\n")
	fmt.Fprintf(&b, "fn producer() {\n\tdata = %d\n\tlock(mu)\n\tready = 1\n\tbroadcast(cv)\n\tunlock(mu)\n}\n", val)
	b.WriteString("fn consumer() {\n\tlet peek = data\n\tlock(mu)\n\twhile ready == 0 { wait(cv, mu) }\n\tunlock(mu)\n\tprint(\"data=\", data)\n}\n")
	b.WriteString("fn main() {\n\tlet p = spawn producer()\n\tlet c = spawn consumer()\n\tjoin(p)\n\tjoin(c)\n}\n")
	return newProgram(name, FamCondvarHandoff, b.String(), map[string]workloads.Expected{
		"data": {Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless, StatesDiffer: true},
	})
}

// symPrefix: input() and input-dependent branches precede every race (the
// races themselves are redundant writes). This is the shape that makes
// the symbolic checkpoint store earn its keep — see core.depositSym.
func symPrefix(name string, races, branches, pad int) *Program {
	truth := map[string]workloads.Expected{}
	for i := 0; i < races; i++ {
		truth[fmt.Sprintf("g%d", i)] = workloads.Expected{Truth: core.KWitnessHarmless, Portend: core.KWitnessHarmless}
	}
	p := newProgram(name, FamSymPrefix, workloads.SymPrefixRaceSource(races, branches, pad), truth)
	p.Inputs = []int64{2}
	return p
}

// solverBlind: the ocean §5.4 idiom — the racy value reaches the output
// only behind an input gate (factoring a semiprime) the solver cannot
// satisfy within budget. Ground truth is outDiff; Portend is expected to
// report k-witness: the corpus's known-miss entry.
func solverBlind(name string, semiprime int64) *Program {
	var b strings.Builder
	b.WriteString("// solver-blind: output difference hidden behind an unsatisfiable-in-budget gate.\nvar res = 0\nfn wa() {\n\tres = 3\n}\nfn wb() {\n\tyield()\n\tres = 4\n}\n")
	b.WriteString("fn main() {\n\tlet a = input()\n\tlet b = input()\n\tlet t1 = spawn wa()\n\tlet t2 = spawn wb()\n\tjoin(t1)\n\tjoin(t2)\n")
	fmt.Fprintf(&b, "\tif a > 1 && b > 1 && a < 100000 && b < 100000 && a * b == %d {\n", semiprime)
	b.WriteString("\t\tprint(\"res=\", res)\n\t} else {\n\t\tprint(\"steady\")\n\t}\n}\n")
	p := newProgram(name, FamSolverBlind, b.String(), map[string]workloads.Expected{
		"res": {Truth: core.OutputDiffers, Portend: core.KWitnessHarmless, StatesDiffer: true},
	})
	p.Inputs = []int64{7, 9}
	p.KnownMiss["res"] = true
	return p
}
