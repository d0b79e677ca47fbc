package core

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/race"
)

// TestSeedZeroRoundTrips pins the has-seed semantics: an explicitly
// chosen seed — including 0 — survives option normalization, while an
// unset zero still falls back to the default.
func TestSeedZeroRoundTrips(t *testing.T) {
	p := bytecode.MustCompile(outDiffProg, "seedtest", bytecode.Options{})

	c := New(p, Options{Seed: 0, SeedSet: true})
	if c.Opts.Seed != 0 {
		t.Errorf("explicit seed 0 did not round-trip: got %d", c.Opts.Seed)
	}
	c = New(p, Options{Seed: 0})
	if c.Opts.Seed != DefaultOptions().Seed {
		t.Errorf("unset seed should default to %d, got %d", DefaultOptions().Seed, c.Opts.Seed)
	}
	c = New(p, Options{Seed: 42})
	if c.Opts.Seed != 42 {
		t.Errorf("seed 42 did not round-trip: got %d", c.Opts.Seed)
	}
}

// TestAltSeedNoCollisions asserts the alternate-schedule seed derivation
// is collision-free over the default Mp×Ma grid and far larger ones, for
// several base seeds — the regression for the old linear derivation
// (Seed + 131·pi + 17·j + 1), under which any two grid points differing
// by a multiple of (+17, −131) shared a seed and silently explored the
// same schedule.
func TestAltSeedNoCollisions(t *testing.T) {
	d := DefaultOptions()
	grids := []struct{ mp, ma int }{{d.Mp, d.Ma}, {64, 64}, {200, 17}}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		for _, g := range grids {
			seen := make(map[uint64][2]int, g.mp*g.ma)
			for pi := 0; pi < g.mp; pi++ {
				for j := 0; j < g.ma; j++ {
					s := altSeed(seed, pi, j)
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision for base %d on %dx%d grid: (%d,%d) and (%d,%d) both derive %d",
							seed, g.mp, g.ma, prev[0], prev[1], pi, j, s)
					}
					seen[s] = [2]int{pi, j}
				}
			}
		}
	}
	// The old derivation really did collide on a grid of this size —
	// keep the witness so the test documents what it guards against.
	old := func(seed uint64, pi, j int) uint64 { return seed + uint64(pi)*131 + uint64(j)*17 + 1 }
	if old(1, 17, 0) != old(1, 0, 131) {
		t.Fatal("expected the legacy linear derivation to collide at (17,0)/(0,131)")
	}
}

// forkHeavySrc races on flag while a symbolic input fans the exploration
// out over many forked siblings: each loop iteration branches on the
// symbolic input, so multi-path analysis forks far more siblings than a
// tight queue cap admits.
const forkHeavySrc = `
var flag = 0
var acc = 0
fn w() { flag = 1 }
fn main() {
	let x = input()
	let t = spawn w()
	yield()
	flag = 2
	for i = 0, 12 {
		if x > i { acc = acc + 1 }
	}
	join(t)
	print("acc=", acc)
}`

// TestTruncationAccounted asserts the regression for the silent caps:
// when the fork queue and worklist caps clip the exploration, the
// verdict says so — Stats.TruncatedPaths is non-zero, the §3.6 report
// carries the warning, and the count is deterministic.
func TestTruncationAccounted(t *testing.T) {
	opts := DefaultOptions()
	opts.Mp = 8
	opts.MaxQueuedForks = 2
	opts.MaxPathItems = 3

	res := classify(t, forkHeavySrc, opts, nil, []int64{6})
	v := verdictOn(t, res, "flag")
	if v.Stats.TruncatedPaths == 0 {
		t.Fatalf("expected truncated paths with caps (queue=2, items=3); stats: %+v", v.Stats)
	}
	if rep := v.Report(res.Prog); !strings.Contains(rep, "truncated") {
		t.Errorf("report does not disclose truncation:\n%s", rep)
	}

	// Deterministic: the same caps truncate identically on a re-run.
	res2 := classify(t, forkHeavySrc, opts, nil, []int64{6})
	v2 := verdictOn(t, res2, "flag")
	if v2.Stats.TruncatedPaths != v.Stats.TruncatedPaths {
		t.Errorf("truncation count not deterministic: %d vs %d", v.Stats.TruncatedPaths, v2.Stats.TruncatedPaths)
	}

	// And with generous caps the same workload reports no truncation.
	wide := DefaultOptions()
	res3 := classify(t, forkHeavySrc, wide, nil, []int64{6})
	v3 := verdictOn(t, res3, "flag")
	if v3.Stats.TruncatedPaths != 0 {
		t.Errorf("default caps unexpectedly truncated %d paths", v3.Stats.TruncatedPaths)
	}
	if rep := v3.Report(res3.Prog); strings.Contains(rep, "truncated") {
		t.Errorf("untruncated report should not carry the warning:\n%s", rep)
	}
}

// TestCapsDerivedFromOptions asserts the caps are configuration, not
// magic numbers: zero values normalize to the documented defaults and
// explicit values stick.
func TestCapsDerivedFromOptions(t *testing.T) {
	p := bytecode.MustCompile(outDiffProg, "capstest", bytecode.Options{})

	c := New(p, Options{})
	d := DefaultOptions()
	if c.Opts.MaxQueuedForks != d.MaxQueuedForks {
		t.Errorf("MaxQueuedForks default = %d, want %d", c.Opts.MaxQueuedForks, d.MaxQueuedForks)
	}
	if want := 4*c.Opts.Mp + 32; c.Opts.MaxPathItems != want {
		t.Errorf("MaxPathItems default = %d, want 4*Mp+32 = %d", c.Opts.MaxPathItems, want)
	}

	c = New(p, Options{Mp: 9, MaxQueuedForks: 5, MaxPathItems: 7})
	if c.Opts.MaxQueuedForks != 5 || c.Opts.MaxPathItems != 7 {
		t.Errorf("explicit caps did not round-trip: %+v", c.Opts)
	}
}

// multiRaceSrc spreads three distinct races down one trace; the replay
// of each later race can resume from an earlier race's checkpoint.
const multiRaceSrc = `
var a = 0
var b = 0
var c = 0
fn wa() { a = 7 }
fn wb() { b = 7 }
fn wc() { c = 7 }
fn main() {
	let acc = 0
	for i = 0, 50 { acc = acc + 1 }
	let ta = spawn wa()
	yield()
	a = 7
	join(ta)
	for i = 0, 50 { acc = acc + 1 }
	let tb = spawn wb()
	yield()
	b = 7
	join(tb)
	for i = 0, 50 { acc = acc + 1 }
	let tc = spawn wc()
	yield()
	c = 7
	join(tc)
	print("acc=", acc)
}`

// TestStoreBindsOneTrace pins the checkpoint store's trace binding: a
// classifier built without a tier resumes from its own deposits while it
// classifies the races of one trace, and declines the store for a race
// of another trace, even one recorded from the same program, because a
// checkpoint is a position within one recorded schedule.
func TestStoreBindsOneTrace(t *testing.T) {
	p := bytecode.MustCompile(multiRaceSrc, "bindtrace", bytecode.Options{})
	opts := DefaultOptions()
	opts.Parallel = 1
	c := New(p, opts)

	det := race.Detect(p, nil, nil, c.Opts.RunBudget)
	if len(det.Reports) != 3 {
		t.Fatalf("expected 3 races, got %d", len(det.Reports))
	}
	hits := 0
	for _, rep := range det.Reports {
		v, err := c.Classify(rep, det.Trace)
		if err != nil {
			t.Fatalf("classify %s: %v", rep.ID(), err)
		}
		hits += v.Stats.CheckpointHits
	}
	if hits < 1 {
		t.Fatal("no classification resumed from the classifier's own deposits")
	}
	t.Logf("%d checkpoint hits on the first trace", hits)

	other := race.Detect(p, nil, nil, c.Opts.RunBudget)
	v, err := c.Classify(other.Reports[len(other.Reports)-1], other.Trace)
	if err != nil {
		t.Fatalf("classify on the second trace: %v", err)
	}
	if v.Stats.CheckpointHits != 0 {
		t.Errorf("a race of another trace resumed from the store %d times", v.Stats.CheckpointHits)
	}
}

// TestCheckpointResumeUsedAndInvisible asserts the tentpole's two
// halves at engine level: later races' replays actually resume from the
// shared store (CheckpointHits > 0), and the verdicts are byte-identical
// to a cache-off run.
func TestCheckpointResumeUsedAndInvisible(t *testing.T) {
	render := func(res *Result) string {
		var sb strings.Builder
		for _, v := range res.Verdicts {
			sb.WriteString(v.Race.ID())
			sb.WriteString(" ")
			sb.WriteString(v.String())
			sb.WriteString("\n")
			sb.WriteString(v.Report(res.Prog))
		}
		return sb.String()
	}

	on := DefaultOptions()
	on.Parallel = 1
	off := on
	off.NoCache = true

	resOn := classify(t, multiRaceSrc, on, nil, nil)
	resOff := classify(t, multiRaceSrc, off, nil, nil)
	if len(resOn.Verdicts) < 3 {
		t.Fatalf("expected >= 3 races, got %d", len(resOn.Verdicts))
	}
	if a, b := render(resOn), render(resOff); a != b {
		t.Errorf("caches changed verdicts\n--- on ---\n%s\n--- off ---\n%s", a, b)
	}

	hits := 0
	for _, v := range resOn.Verdicts {
		hits += v.Stats.CheckpointHits
	}
	if hits == 0 {
		t.Error("no replay resumed from the checkpoint store on a 3-race trace")
	}
	for _, v := range resOff.Verdicts {
		if v.Stats.CheckpointHits != 0 {
			t.Errorf("cache-off run reported checkpoint hits: %+v", v.Stats)
		}
	}
}
