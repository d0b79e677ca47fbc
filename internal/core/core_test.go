package core

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// classify runs end-to-end detection + classification on a PIL source.
func classify(t *testing.T, src string, opts Options, args, inputs []int64) *Result {
	t.Helper()
	p := bytecode.MustCompile(src, "coretest", bytecode.Options{})
	res := Run(p, args, inputs, opts)
	for _, err := range res.Errors {
		t.Fatalf("classification error: %v", err)
	}
	return res
}

// one returns the single verdict of a result.
func one(t *testing.T, res *Result) *Verdict {
	t.Helper()
	if len(res.Verdicts) != 1 {
		for _, v := range res.Verdicts {
			t.Logf("verdict: %s -> %s", v.Race.ID(), v)
		}
		t.Fatalf("want exactly 1 race, got %d", len(res.Verdicts))
	}
	return res.Verdicts[0]
}

// verdictOn finds the verdict for the race on the named global.
func verdictOn(t *testing.T, res *Result, global string) *Verdict {
	t.Helper()
	gid := int64(res.Prog.GlobalID(global))
	for _, v := range res.Verdicts {
		if v.Race.Key.Space == vm.SpaceGlobal && v.Race.Key.Obj == gid {
			return v
		}
	}
	t.Fatalf("no race found on global %q", global)
	return nil
}

const outDiffProg = `
var v = 0
fn t2() { v = 1 }
fn main() {
	let t = spawn t2()
	yield()
	print("v=", v)
	join(t)
}`

func TestClassifyOutputDiffers(t *testing.T) {
	res := classify(t, outDiffProg, DefaultOptions(), nil, nil)
	v := one(t, res)
	if v.Class != OutputDiffers {
		t.Fatalf("want outDiff, got %s (%s)", v.Class, v)
	}
	if v.OutputDiff == nil {
		t.Fatal("outDiff verdict must carry evidence")
	}
	if v.OutputDiff.Primary == v.OutputDiff.Altern {
		t.Fatalf("evidence shows no difference: %q vs %q", v.OutputDiff.Primary, v.OutputDiff.Altern)
	}
}

const kWitnessProg = `
var w = 0
fn t2() { w = 5 }
fn main() {
	let t = spawn t2()
	yield()
	w = 5
	join(t)
	print("w=", w)
}`

func TestClassifyKWitnessRedundantWrite(t *testing.T) {
	res := classify(t, kWitnessProg, DefaultOptions(), nil, nil)
	v := one(t, res)
	if v.Class != KWitnessHarmless {
		t.Fatalf("want k-witness, got %s (%s)", v.Class, v)
	}
	if v.K < 1 {
		t.Fatalf("k = %d", v.K)
	}
	if v.StatesDiffer {
		t.Fatal("redundant writes leave identical post-race states")
	}
}

const statesDifferProg = `
var lvl = 0
fn t2() { lvl = 2 }
fn main() {
	let t = spawn t2()
	yield()
	lvl = 3
	join(t)
	print("done")
}`

func TestClassifyKWitnessStatesDiffer(t *testing.T) {
	// Both orderings print "done": harmless, but the post-race memory
	// differs (lvl = 3 vs 2) — the case where the Record/Replay-Analyzer
	// criterion mispredicts harm (§5.2).
	res := classify(t, statesDifferProg, DefaultOptions(), nil, nil)
	v := one(t, res)
	if v.Class != KWitnessHarmless {
		t.Fatalf("want k-witness, got %s (%s)", v.Class, v)
	}
	if !v.StatesDiffer {
		t.Fatal("post-race states should differ")
	}
}

const crashAltProg = `
var idx = 4
var arr[4]
fn t2() {
	idx = 1
}
fn main() {
	let t = spawn t2()
	yield()
	arr[idx] = 7
	join(t)
}`

func TestClassifySpecViolCrashInAlternate(t *testing.T) {
	// Primary: t2 sets idx=1 before main indexes arr — fine. Alternate
	// ordering: main reads idx=4 first — out-of-bounds crash.
	res := classify(t, crashAltProg, DefaultOptions(), nil, nil)
	v := verdictOn(t, res, "idx")
	if v.Class != SpecViolated {
		t.Fatalf("want specViol, got %s (%s)", v.Class, v)
	}
	if v.Consequence != ConsCrash {
		t.Fatalf("want crash, got %s (%s)", v.Consequence, v.Detail)
	}
}

const adHocProg = `
var flag = 0
var data = 0
fn producer() {
	data = 42
	sleep(1)
	sleep(1)
	sleep(1)
	sleep(1)
	sleep(1)
	flag = 1
}
fn main() {
	let p = spawn producer()
	while flag == 0 { usleep(50) }
	print("data=", data)
	join(p)
}`

func TestClassifySingleOrderingAdHoc(t *testing.T) {
	res := classify(t, adHocProg, DefaultOptions(), nil, nil)
	v := verdictOn(t, res, "flag")
	if v.Class != SingleOrdering {
		t.Fatalf("want singleOrd for the busy-wait flag, got %s (%s)", v.Class, v)
	}
	// The data race "behind" the flag is also ordering-protected: its
	// alternate cannot be enforced either (the flag spin never exits).
	d := verdictOn(t, res, "data")
	if d.Class != SingleOrdering {
		t.Fatalf("want singleOrd for data behind ad-hoc sync, got %s (%s)", d.Class, d)
	}
}

const infiniteLoopProg = `
var mode = 0
var never = 0
fn t2() {
	if mode == 0 {
		while never == 0 { }
	}
	print("t2 done")
}
fn main() {
	let t = spawn t2()
	mode = 1
	join(t)
}`

func TestClassifySpecViolInfiniteLoop(t *testing.T) {
	// Alternate ordering sends t2 into a loop whose exit condition no
	// live thread can modify: an infinite loop, not ad-hoc sync.
	res := classify(t, infiniteLoopProg, DefaultOptions(), nil, nil)
	v := verdictOn(t, res, "mode")
	if v.Class != SpecViolated {
		t.Fatalf("want specViol, got %s (%s)", v.Class, v)
	}
	if v.Consequence != ConsHang {
		t.Fatalf("want hang, got %s (%s)", v.Consequence, v.Detail)
	}
}

const deadlockProg = `
var state = 0
var go_flag = 0
mutex m
cond c
fn t2() {
	let s = state
	if s == 0 {
		lock(m)
		while go_flag == 0 { wait(c, m) }
		unlock(m)
	}
	print("t2 ok")
}
fn main() {
	let t = spawn t2()
	state = 1
	join(t)
}`

func TestClassifySpecViolDeadlock(t *testing.T) {
	// Alternate ordering: t2 reads state before main's init write and
	// waits forever for a signal that never comes; main blocks in join.
	res := classify(t, deadlockProg, DefaultOptions(), nil, nil)
	v := verdictOn(t, res, "state")
	if v.Class != SpecViolated {
		t.Fatalf("want specViol, got %s (%s)", v.Class, v)
	}
	if v.Consequence != ConsDeadlock {
		t.Fatalf("want deadlock, got %s (%s)", v.Consequence, v.Detail)
	}
}

const multiPathOutDiffProg = `
var g = 0
fn t2() { g = g + 1 }
fn main() {
	let t = spawn t2()
	let cfg = input()
	yield()
	let snapshot = g
	join(t)
	if cfg > 0 {
		print("snap ", snapshot)
	} else {
		print("done")
	}
}`

func TestMultiPathRevealsOutputDiff(t *testing.T) {
	// With the recorded input (0) both orderings print "done" — a
	// single-path classifier calls this harmless. The cfg>0 path reveals
	// the order-dependent snapshot.
	res := classify(t, multiPathOutDiffProg, DefaultOptions(), nil, []int64{0})
	v := one(t, res)
	if v.Class != OutputDiffers {
		t.Fatalf("want outDiff via multi-path, got %s (%s)", v.Class, v)
	}
}

func TestSinglePathMissesMultiPathDiff(t *testing.T) {
	opts := DefaultOptions()
	opts.MultiPath = false
	opts.MultiSchedule = false
	res := classify(t, multiPathOutDiffProg, opts, nil, []int64{0})
	v := one(t, res)
	if v.Class != KWitnessHarmless {
		t.Fatalf("single-path mode should (mis)classify as k-witness, got %s", v.Class)
	}
	if v.K != 1 {
		t.Fatalf("single-path witness count should be 1, got %d", v.K)
	}
}

// fig4Prog mirrors the Ctrace example of Fig 4: the race is harmless with
// the recorded input (hash-table path), but on the other input path the
// alternate ordering overflows a fixed-size buffer.
const fig4Prog = `
var id = 3
var table[8]
var arr[4]
fn reqHandler() {
	id = id + 1
}
fn updateStats() {
	let use_hash = input()
	if use_hash > 0 {
		print("hash ", table[id])
	} else {
		if id < 4 {
			arr[id] = 1
		}
	}
}
fn main() {
	let t1 = spawn reqHandler()
	let t2 = spawn updateStats()
	join(t1)
	join(t2)
}`

func TestFig4OverflowFoundByMultiPath(t *testing.T) {
	res := classify(t, fig4Prog, DefaultOptions(), nil, []int64{1})
	v := verdictOn(t, res, "id")
	if v.Class != SpecViolated {
		t.Fatalf("want specViol (Fig 4 overflow), got %s (%s)", v.Class, v)
	}
	if v.Consequence != ConsCrash {
		t.Fatalf("want crash, got %s (%s)", v.Consequence, v.Detail)
	}
}

func TestFig4MissedWithoutMultiPath(t *testing.T) {
	opts := DefaultOptions()
	opts.MultiPath = false
	opts.MultiSchedule = false
	res := classify(t, fig4Prog, opts, nil, []int64{1})
	v := verdictOn(t, res, "id")
	if v.Class != KWitnessHarmless {
		t.Fatalf("single-path should miss the overflow, got %s (%s)", v.Class, v)
	}
}

func TestAdHocGateOff(t *testing.T) {
	// Without ad-hoc detection (Fig 7's single-path baseline): the
	// busy-wait flag race looks harmless (its reversal is absorbed by
	// the poll loop), and the data race behind it — whose alternate
	// cannot be enforced — is conservatively treated as harmful, like
	// the Record/Replay-Analyzer on replay failure. Both are
	// misclassifications that ad-hoc detection fixes.
	opts := DefaultOptions()
	opts.AdHocDetection = false
	res := classify(t, adHocProg, opts, nil, nil)
	if v := verdictOn(t, res, "flag"); v.Class != KWitnessHarmless {
		t.Fatalf("flag race without ad-hoc detection: want k-witness, got %s", v.Class)
	}
	if v := verdictOn(t, res, "data"); v.Class != SpecViolated {
		t.Fatalf("data race without ad-hoc detection: want conservative specViol, got %s", v.Class)
	}
}

const semanticProg = `
var ts = 5
fn t2() {
	ts = 0 - 1
	ts = 7
}
fn main() {
	let t = spawn t2()
	yield()
	let snapshot = ts
	join(t)
	print("done")
}`

func TestSemanticPredicateViolation(t *testing.T) {
	p := bytecode.MustCompile(semanticProg, "sem", bytecode.Options{})
	opts := DefaultOptions()
	opts.Predicates = []Predicate{
		GlobalPredicate("timestamps non-negative", p.GlobalID("ts"), func(v int64) bool { return v >= 0 }),
	}
	res := Run(p, nil, nil, opts)
	if len(res.Errors) > 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(res.Verdicts) == 0 {
		t.Fatal("expected races")
	}
	found := false
	for _, v := range res.Verdicts {
		if v.Class == SpecViolated && v.Consequence == ConsSemantic {
			found = true
		}
	}
	if !found {
		t.Fatal("the transient negative timestamp should violate the predicate")
	}
	// Without the predicate the same race is not a semantic violation
	// (the negative value is overwritten, as in fmm §5.1).
	res2 := Run(p, nil, nil, DefaultOptions())
	for _, v := range res2.Verdicts {
		if v.Consequence == ConsSemantic {
			t.Fatal("no semantic violation expected without the predicate")
		}
	}
}

const whatIfProg = `
var items = 0
mutex m
fn worker() {
	lock(m)
	items = items + 1
	unlock(m)
}
fn main() {
	let a = spawn worker()
	lock(m)
	items = items + 10
	unlock(m)
	join(a)
	print("items=", items)
}`

func TestWhatIfAnalysis(t *testing.T) {
	// Lines 5 and 7 are worker's lock/unlock: removing them induces a
	// race whose consequences Portend predicts (§5.1).
	w, err := WhatIf(whatIfProg, "whatif", []int{5, 7}, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.NewRaces) == 0 {
		t.Fatal("removing the lock must induce at least one new race")
	}
	// The base program has no races at all.
	base := classify(t, whatIfProg, DefaultOptions(), nil, nil)
	if len(base.Verdicts) != 0 {
		t.Fatal("base program should be race-free")
	}
}

func TestVerdictReportRendering(t *testing.T) {
	res := classify(t, outDiffProg, DefaultOptions(), nil, nil)
	v := one(t, res)
	rep := v.Report(res.Prog)
	for _, want := range []string{"Data race during access to: v", "classification: outDiff", "outputs differ"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestByClassAndRank(t *testing.T) {
	res := classify(t, outDiffProg, DefaultOptions(), nil, nil)
	byc := res.ByClass()
	if len(byc[OutputDiffers]) != 1 {
		t.Fatal("ByClass grouping wrong")
	}
}

func TestStatsPopulated(t *testing.T) {
	res := classify(t, multiPathOutDiffProg, DefaultOptions(), nil, []int64{0})
	v := one(t, res)
	if v.Stats.Preemptions == 0 {
		t.Fatal("preemption count missing")
	}
	if v.Stats.Duration <= 0 {
		t.Fatal("duration missing")
	}
}

func TestClassifierDeterminism(t *testing.T) {
	for i := 0; i < 3; i++ {
		res := classify(t, multiPathOutDiffProg, DefaultOptions(), nil, []int64{0})
		v := one(t, res)
		if v.Class != OutputDiffers {
			t.Fatalf("iteration %d: got %s", i, v.Class)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if SpecViolated.String() != "specViol" || OutputDiffers.String() != "outDiff" ||
		KWitnessHarmless.String() != "k-witness" || SingleOrdering.String() != "singleOrd" {
		t.Fatal("class names wrong")
	}
	if ConsDeadlock.String() != "deadlock" || ConsCrash.String() != "crash" {
		t.Fatal("consequence names wrong")
	}
}
