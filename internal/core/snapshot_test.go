package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/race"
)

// runOnTier runs one analysis against the tier, the way the server does:
// BeginRun, Run with the tier attached, end.
func runOnTier(t *testing.T, tier *CacheTier, src string, inputs []int64) *Result {
	t.Helper()
	return runOnTierWith(t, tier, src, snapshotTestOptions(), inputs)
}

// runOnTierWith is runOnTier under explicit options.
func runOnTierWith(t *testing.T, tier *CacheTier, src string, opts Options, inputs []int64) *Result {
	t.Helper()
	p := bytecode.MustCompile(src, "snaptest", bytecode.Options{})
	opts.Tier = tier
	end := tier.BeginRun()
	defer end()
	res := Run(p, nil, inputs, opts)
	for _, err := range res.Errors {
		t.Fatalf("classification error: %v", err)
	}
	return res
}

func snapshotTestOptions() Options {
	opts := DefaultOptions()
	opts.Parallel = 1
	return opts
}

func newSnapshotTestTier() *CacheTier {
	return NewCacheTier(snapshotTestOptions())
}

// TestTierSnapshotRoundTrip is durability at the core seam: a populated
// tier survives Snapshot → gob → Restore with its stats intact, and a
// second run on the restored tier is warm (cross-run checkpoint hits)
// while producing byte-identical verdicts to a run on the original
// in-memory tier.
func TestTierSnapshotRoundTrip(t *testing.T) {
	tierA := newSnapshotTestTier()
	resA1 := runOnTier(t, tierA, detectSeedSrc, []int64{3})
	if len(resA1.Verdicts) < 3 {
		t.Fatalf("seed run produced %d verdicts, want >= 3", len(resA1.Verdicts))
	}
	statsA := tierA.Stats()
	if statsA.Checkpoints == 0 {
		t.Fatal("seed run deposited no checkpoints; snapshot test is vacuous")
	}

	// Serialize exactly like the durable store does, then restore into a
	// fresh tier.
	tierB := NewCacheTier(DefaultOptions())
	if err := tierB.Restore(gobRoundTrip(t, tierA.Snapshot())); err != nil {
		t.Fatalf("restore: %v", err)
	}

	// Stats fidelity: populations and traffic counters survive, so a
	// restarted daemon reports honest warmth.
	statsB := tierB.Stats()
	if statsB != statsA {
		t.Errorf("restored stats diverge:\n  orig     %+v\n  restored %+v", statsA, statsB)
	}
	if got, want := tierB.Runs(), tierA.Runs(); got != want {
		t.Errorf("restored Runs = %d, want %d", got, want)
	}
	if tierB.MemBytes() == 0 {
		t.Error("restored tier reports zero measured bytes")
	}

	// The restored tier must behave like the live one: warm second run,
	// byte-identical verdicts.
	resA2 := runOnTier(t, tierA, detectSeedSrc, []int64{3})
	resB2 := runOnTier(t, tierB, detectSeedSrc, []int64{3})
	if a, b := renderRun(resA2), renderRun(resB2); a != b {
		t.Errorf("restored tier changed verdicts\n--- live ---\n%s\n--- restored ---\n%s", a, b)
	}
	if hits := tierB.Stats().CheckpointHits - statsB.CheckpointHits; hits < 1 {
		t.Errorf("second run on restored tier reported no cross-run checkpoint hits (delta %d)", hits)
	}
	if !statsB.Warm() {
		t.Error("restored stats not Warm()")
	}
}

// TestSnapshotIfIdleRefusesActiveRun pins the flush de-duplication: while
// runs overlap, SnapshotIfIdle refuses until the last active run ends,
// and that run's flush writes the tier once.
func TestSnapshotIfIdleRefusesActiveRun(t *testing.T) {
	tier := newSnapshotTestTier()
	end1 := tier.BeginRun()
	end2 := tier.BeginRun()
	if _, ok := tier.SnapshotIfIdle(); ok {
		t.Fatal("SnapshotIfIdle succeeded with two active runs")
	}
	end1()
	if _, ok := tier.SnapshotIfIdle(); ok {
		t.Fatal("SnapshotIfIdle succeeded with one active run")
	}
	end2()
	if _, ok := tier.SnapshotIfIdle(); !ok {
		t.Fatal("SnapshotIfIdle refused an idle tier")
	}
}

// TestRestoreEmptySnapshot pins that restoring a snapshot of an empty
// tier (no program ever ran) is a no-op, not an error.
func TestRestoreEmptySnapshot(t *testing.T) {
	empty := newSnapshotTestTier()
	snap := empty.Snapshot()
	fresh := newSnapshotTestTier()
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("restore empty: %v", err)
	}
	if s := fresh.Stats(); s.Warm() {
		t.Errorf("empty restore produced warmth: %+v", s)
	}
}

// gobRoundTrip serializes snap exactly like the durable store does (gob
// over the wire struct) and decodes it back.
func gobRoundTrip(t *testing.T, snap *TierSnapshot) *TierSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back TierSnapshot
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &back
}

// tierCase is one program analyzed on a tier.
type tierCase struct {
	name   string
	src    string
	opts   func() Options
	inputs []int64
}

// tierCases are a concrete program and one whose exploration
// mainline forks on a symbolic input before every race.
var tierCases = []tierCase{
	{"concrete", detectSeedSrc, snapshotTestOptions, []int64{3}},
	{"mainline", siblingSkipProg, symOptions, []int64{2}},
}

// TestSnapshotOfRestoredTierRestores pins that a restored tier, flushed
// again before any run, restores to the same positions and counters, and
// that a run on the re-restored tier renders exactly like a cold tier.
func TestSnapshotOfRestoredTierRestores(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			tier := restoredTestTier(t, tc)
			checkReRestore(t, tier, tier.Snapshot(), tc)
		})
	}
}

// TestSnapshotAfterCancelledRunRestores is the server-shaped variant: a
// restored tier whose run is cancelled before detection completes keeps
// its positions, and is then flushed through SnapshotIfIdle.
func TestSnapshotAfterCancelledRunRestores(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			tier := restoredTestTier(t, tc)
			end := tier.BeginRun()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := tc.opts()
			opts.Tier = tier
			p := bytecode.MustCompile(tc.src, "snaptest", bytecode.Options{})
			if _, err := RunCtx(ctx, p, nil, tc.inputs, opts); err == nil {
				t.Fatal("cancelled run reported no error")
			}
			end()
			snap, ok := tier.SnapshotIfIdle()
			if !ok {
				t.Fatal("SnapshotIfIdle refused an idle tier")
			}
			checkReRestore(t, tier, snap, tc)
		})
	}
}

// restoredTestTier analyzes tc on a fresh tier and restores that tier's
// snapshot into a new one.
func restoredTestTier(t *testing.T, tc tierCase) *CacheTier {
	t.Helper()
	seed := NewCacheTier(tc.opts())
	runOnTierWith(t, seed, tc.src, tc.opts(), tc.inputs)
	tier := NewCacheTier(tc.opts())
	if err := tier.Restore(gobRoundTrip(t, seed.Snapshot())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if s := tier.Stats(); s.Checkpoints == 0 {
		t.Fatalf("restored tier holds too few checkpoints (%+v); the test is vacuous", s)
	}
	return tier
}

// checkReRestore restores snap, taken of from, into a fresh tier, which
// must hold the same positions and traffic counters as from and analyze
// tc exactly like a cold tier.
func checkReRestore(t *testing.T, from *CacheTier, snap *TierSnapshot, tc tierCase) {
	t.Helper()
	back := NewCacheTier(tc.opts())
	if err := back.Restore(gobRoundTrip(t, snap)); err != nil {
		t.Fatalf("re-restore: %v", err)
	}
	if got, want := back.Stats(), from.Stats(); got != want {
		t.Errorf("re-restored stats diverge:\n  want %+v\n  got  %+v", want, got)
	}
	cold := runOnTierWith(t, NewCacheTier(tc.opts()), tc.src, tc.opts(), tc.inputs)
	warm := runOnTierWith(t, back, tc.src, tc.opts(), tc.inputs)
	if a, b := renderRun(cold), renderRun(warm); a != b {
		t.Errorf("re-restored tier changed verdicts\n--- cold ---\n%s\n--- re-restored ---\n%s", a, b)
	}
}

// tierRun is one run of a tierCase on a tier: its rendering, the
// checkpoint hits it took, and the positions the tier kept after it.
type tierRun struct {
	render    string
	hits      int
	positions []int64
}

func runTierCase(t *testing.T, tier *CacheTier, tc tierCase, width int) tierRun {
	t.Helper()
	opts := tc.opts()
	opts.Parallel = width
	before := tier.Stats().CheckpointHits
	res := runOnTierWith(t, tier, tc.src, opts, tc.inputs)
	return tierRun{renderRun(res), tier.Stats().CheckpointHits - before, tier.Snapshot().Positions}
}

// TestTierPositionsStable pins warmth as one mechanism: three runs of one
// submission on one tier keep the same positions after each run, render
// like a cache-off run, and the two warm runs take the same hits.
func TestTierPositionsStable(t *testing.T) {
	for _, tc := range tierCases {
		for _, width := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/width=%d", tc.name, width), func(t *testing.T) {
				off := tc.opts()
				off.NoCache = true
				p := bytecode.MustCompile(tc.src, "snaptest", bytecode.Options{})
				want := renderRun(Run(p, nil, tc.inputs, off))

				tier := NewCacheTier(tc.opts())
				var runs []tierRun
				for i := 0; i < 3; i++ {
					r := runTierCase(t, tier, tc, width)
					if r.render != want {
						t.Fatalf("run %d changed verdicts\n--- cache off ---\n%s\n--- run ---\n%s", i+1, want, r.render)
					}
					runs = append(runs, r)
				}
				if len(runs[0].positions) == 0 {
					t.Fatal("the tier kept no positions; the test is vacuous")
				}
				for i := 1; i < 3; i++ {
					if !slices.Equal(runs[i].positions, runs[0].positions) {
						t.Errorf("positions after run %d = %v, after run 1 %v", i+1, runs[i].positions, runs[0].positions)
					}
				}
				if runs[1].hits != runs[2].hits || runs[1].hits == 0 {
					t.Errorf("warm runs took %d and %d hits, want the same, nonzero", runs[1].hits, runs[2].hits)
				}
			})
		}
	}
}

// TestOverlappingRunsBothSeeded pins that runs overlapping on one warm
// tier each get their own store, seeded from the tier's positions: a
// second run started and finished while the first is between verdicts
// takes as many checkpoint hits as a warm run, and so does the first.
func TestOverlappingRunsBothSeeded(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			p := bytecode.MustCompile(tc.src, "snaptest", bytecode.Options{})
			opts := tc.opts()
			off := opts
			off.NoCache = true
			want := renderRun(Run(p, nil, tc.inputs, off))

			tier := NewCacheTier(opts)
			runTierCase(t, tier, tc, 1)
			warm := runTierCase(t, tier, tc, 1).hits
			opts.Tier = tier

			hits := func(res *Result) (n int) {
				for _, v := range res.Verdicts {
					n += v.Stats.CheckpointHits
				}
				return n
			}
			var inner *Result
			endOuter := tier.BeginRun()
			outer, err := RunStream(context.Background(), p, nil, tc.inputs, opts, func(*race.Report, *Verdict, error) bool {
				if inner == nil {
					endInner := tier.BeginRun()
					inner = Run(p, nil, tc.inputs, opts)
					endInner()
				}
				return true
			})
			endOuter()
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]*Result{"outer": outer, "inner": inner} {
				if got := renderRun(res); got != want {
					t.Errorf("%s run changed verdicts\n--- cache off ---\n%s\n--- run ---\n%s", name, want, got)
				}
				if got := hits(res); got != warm || got == 0 {
					t.Errorf("%s run took %d checkpoint hits, a warm run %d", name, got, warm)
				}
			}
		})
	}
}

// TestRestoreValidatesPositions pins Restore's one check: a position
// list that is not strictly ascending, positive and at most
// ckpt.DefaultMax long is an error and leaves the tier as it was; any
// other list restores, and a run on it renders like a cold tier.
func TestRestoreValidatesPositions(t *testing.T) {
	long := make([]int64, ckpt.DefaultMax+1)
	for i := range long {
		long[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		name string
		ps   []int64
		ok   bool
	}{
		{"unsorted", []int64{64, 10, 200}, false},
		{"negative", []int64{-5, 10}, false},
		{"zero", []int64{0, 10}, false},
		{"duplicate", []int64{10, 10, 20}, false},
		{"over-long", long, false},
		{"longest", long[:ckpt.DefaultMax], true},
		{"past-the-end", []int64{64, 1 << 40}, true},
		{"foreign", []int64{3, 17, 99, 1000, 1001}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tier := newSnapshotTestTier()
			err := tier.Restore(&TierSnapshot{Runs: 7, Positions: tc.ps})
			if tc.ok != (err == nil) {
				t.Fatalf("Restore(%v) = %v, want ok %v", tc.ps, err, tc.ok)
			}
			if !tc.ok {
				if s := tier.Stats(); s != (TierStats{}) || tier.Runs() != 0 {
					t.Fatalf("failed Restore changed the tier: %+v, runs %d", s, tier.Runs())
				}
				return
			}
			cold := renderRun(runOnTier(t, newSnapshotTestTier(), detectSeedSrc, []int64{3}))
			if got := renderRun(runOnTier(t, tier, detectSeedSrc, []int64{3})); got != cold {
				t.Errorf("run on restored positions differs from a cold tier\n--- cold ---\n%s\n--- restored ---\n%s", cold, got)
			}
		})
	}
}
