package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/race"
)

// renderRun renders everything user-visible about a result for byte
// comparison (verdict order, summaries, §3.6 reports).
func renderRun(res *Result) string {
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

// detectSeedSrc strings three benign races along a trace behind a long
// compute prefix: the shape where classifying race #1 from the initial
// state pays the whole prefix unless detection deposited checkpoints.
const detectSeedSrc = `
var a = 0
var b = 0
var c = 0
var acc = 0
fn wa() { a = 7 }
fn wb() { b = 7 }
fn wc() { c = 7 }
fn main() {
	for i = 0, 200 { acc = acc + 1 }
	let ta = spawn wa()
	yield()
	a = 7
	join(ta)
	for i = 0, 200 { acc = acc + 1 }
	let tb = spawn wb()
	yield()
	b = 7
	join(tb)
	for i = 0, 200 { acc = acc + 1 }
	let tc = spawn wc()
	yield()
	c = 7
	join(tc)
	let x = input()
	print("acc=", acc + x)
}`

// TestDetectionSeedsFirstRace asserts the detection-phase half of the
// tentpole at the engine seam: the detection pass itself deposits replay
// checkpoints into the run's shared store (periodic cadence plus each
// new cluster's detection point), a snapshot at or before the *first*
// race's first racing access exists before any classification replay has
// run, and classifying that first race resumes from it.
func TestDetectionSeedsFirstRace(t *testing.T) {
	p := bytecode.MustCompile(detectSeedSrc, "detectseed", bytecode.Options{})
	opts := DefaultOptions()
	opts.Parallel = 1
	opts = New(p, opts).Opts // normalize defaults the way RunStream's classifiers see them

	shared := newSharedCaches()
	det := race.DetectWith(context.Background(), p, nil, nil, opts.RunBudget, detectionConfig(opts, shared))
	if len(det.Reports) < 3 {
		t.Fatalf("expected 3 races, got %d", len(det.Reports))
	}
	if shared.store.Len() == 0 {
		t.Fatal("detection deposited no checkpoints")
	}

	// The store must already cover the first race's replay — no
	// classification has deposited anything yet.
	first := det.Reports[0]
	if first.First.Global == 0 {
		t.Fatalf("first race carries no replay coordinate: %+v", first.First)
	}
	e, steps, ok := shared.store.Resume(first.First.Global, nil)
	if !ok || steps == 0 {
		t.Fatalf("no detection snapshot at or before race #1's first access (%d): ok=%v steps=%d",
			first.First.Global, ok, steps)
	}
	if e.State.Steps != steps {
		t.Fatalf("snapshot state at %d steps, entry filed under %d", e.State.Steps, steps)
	}

	// Classifying race #1 against the detection-seeded store resumes.
	opts.shared = shared
	v, err := New(p, opts).Classify(first, det.Trace)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if v.Stats.CheckpointHits < 1 {
		t.Errorf("race #1 did not resume from a detection snapshot: %+v", v.Stats)
	}
}

// TestDetectionCheckpointsEndToEnd asserts the same property through the
// public engine path — the *first* verdict of a multi-race run reports a
// checkpoint resume — and that verdicts are byte-identical to a cache-off
// run (detection checkpointing shifts time, never outcomes).
func TestDetectionCheckpointsEndToEnd(t *testing.T) {
	on := DefaultOptions()
	on.Parallel = 1
	off := on
	off.NoCache = true

	resOn := classify(t, detectSeedSrc, on, nil, []int64{3})
	resOff := classify(t, detectSeedSrc, off, nil, []int64{3})
	if len(resOn.Verdicts) < 3 {
		t.Fatalf("expected 3 verdicts, got %d", len(resOn.Verdicts))
	}
	if a, b := renderRun(resOn), renderRun(resOff); a != b {
		t.Errorf("detection checkpoints changed verdicts\n--- on ---\n%s\n--- off ---\n%s", a, b)
	}
	if hits := resOn.Verdicts[0].Stats.CheckpointHits; hits < 1 {
		t.Errorf("first race of the trace did not resume from a detection snapshot: %+v",
			resOn.Verdicts[0].Stats)
	}
	for _, v := range resOff.Verdicts {
		if v.Stats.CheckpointHits != 0 {
			t.Errorf("cache-off run reported checkpoint hits: %+v", v.Stats)
		}
	}
}

// symPrefixSrc mirrors workloads.SymPrefixRaceSource: the input() read
// and input-dependent branches precede every race, so every pre-race
// prefix has consumed a symbolic read, and every multi-path exploration
// replays symbolically from the root while the replays to each race
// still resume from the checkpoint store.
const symPrefixSrc = `
var a = 0
var b = 0
var c = 0
var acc = 0
fn wa() { a = 7 }
fn wb() { b = 7 }
fn wc() { c = 7 }
fn main() {
	let x = input()
	for i = 0, 4 {
		if x > i { acc = acc + 1 }
	}
	for i = 0, 150 { acc = acc + 1 }
	let ta = spawn wa()
	yield()
	a = 7
	join(ta)
	for i = 0, 150 { acc = acc + 1 }
	let tb = spawn wb()
	yield()
	b = 7
	join(tb)
	for i = 0, 150 { acc = acc + 1 }
	let tc = spawn wc()
	yield()
	c = 7
	join(tc)
	print("acc=", acc + x)
}`

// TestSymbolicStoreResumesInputFirstRaces asserts that on a workload
// whose input() precedes its races the caches change nothing: verdicts
// are byte-identical to a cache-off run at sequential and parallel
// widths.
func TestSymbolicStoreResumesInputFirstRaces(t *testing.T) {
	on := DefaultOptions()
	on.Parallel = 1
	off := on
	off.NoCache = true

	resOn := classify(t, symPrefixSrc, on, nil, []int64{2})
	resOff := classify(t, symPrefixSrc, off, nil, []int64{2})
	if len(resOn.Verdicts) < 3 {
		t.Fatalf("expected 3 verdicts, got %d", len(resOn.Verdicts))
	}
	if a, b := renderRun(resOn), renderRun(resOff); a != b {
		t.Errorf("caches changed verdicts\n--- on ---\n%s\n--- off ---\n%s", a, b)
	}

	// Parallel width must not change the bytes either (hits may vary with
	// warmth; the verdicts may not).
	wide := on
	wide.Parallel = 8
	resWide := classify(t, symPrefixSrc, wide, nil, []int64{2})
	if a, b := renderRun(resOn), renderRun(resWide); a != b {
		t.Errorf("parallel width changed input-first verdicts\n--- seq ---\n%s\n--- wide ---\n%s", a, b)
	}
}
