package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// runOnTier runs one analysis against the tier, the way the server does:
// BeginRun to (re)bind the trace, Run with the tier attached, end.
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

// TestTierSnapshotRoundTrip is the durability tentpole at the core seam:
// a populated tier survives Snapshot → gob → Restore with its stats
// intact, and a second run on the restored tier is warm (cross-run
// checkpoint hits) while producing byte-identical verdicts to a run on
// the original in-memory tier.
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

// TestSnapshotIfIdleRefusesActiveRun pins the mid-run guard: a snapshot
// taken while a run records would capture a trace prefix that the stored
// replay controllers overrun, so SnapshotIfIdle must refuse until the
// last active run ends.
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

// tracelessCases are a concrete program and one whose exploration
// mainline forks on a symbolic input before every race.
var tracelessCases = []tierCase{
	{"concrete", detectSeedSrc, snapshotTestOptions, []int64{3}},
	{"mainline", siblingSkipProg, symOptions, []int64{2}},
}

// TestSnapshotOfRestoredTierRestores is a regression test: a restored
// tier has no bound trace until a run's detection binds one, and its
// snapshot used to write no trace next to its replay controllers, so the
// restart after a flush of such a tier rejected the file ("replay
// controller in a snapshot without a trace").
func TestSnapshotOfRestoredTierRestores(t *testing.T) {
	for _, tc := range tracelessCases {
		t.Run(tc.name, func(t *testing.T) {
			tier := restoredTestTier(t, tc)
			checkReRestore(t, tier, tier.Snapshot(), tc)
		})
	}
}

// TestSnapshotAfterCancelledRunRestores is the server-shaped variant: a
// restored tier whose run is cancelled before detection binds a trace is
// then flushed through SnapshotIfIdle.
func TestSnapshotAfterCancelledRunRestores(t *testing.T) {
	for _, tc := range tracelessCases {
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
// snapshot into a new one, whose trace binding is clear.
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
// must hold the same entries and traffic counters as from and analyze
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

// TestRestoreRejectsMisfitStates pins that Restore refuses checkpoint
// states that do not fit the snapshot's program, instead of importing
// states the next run cannot execute: the restore fails, the tier stays
// cold, and the next run on it classifies exactly like a cold tier.
func TestRestoreRejectsMisfitStates(t *testing.T) {
	seed := newSnapshotTestTier()
	runOnTier(t, seed, detectSeedSrc, []int64{3})
	cold := renderRun(runOnTier(t, newSnapshotTestTier(), detectSeedSrc, []int64{3}))

	frames := func(snap *TierSnapshot, f func(fw *vm.FrameWire)) {
		for _, e := range snap.Concrete {
			for i := range e.State.Threads {
				for j := range e.State.Threads[i].Frames {
					f(&e.State.Threads[i].Frames[j])
				}
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(snap *TierSnapshot)
	}{
		{"nil program", func(snap *TierSnapshot) { snap.Program = nil }},
		{"no functions", func(snap *TierSnapshot) { snap.Program.Funcs = nil }},
		{"no globals", func(snap *TierSnapshot) {
			for _, e := range snap.Concrete {
				e.State.Globals = nil
			}
		}},
		{"pc past code", func(snap *TierSnapshot) { frames(snap, func(fw *vm.FrameWire) { fw.PC = 1 << 20 }) }},
		{"function out of range", func(snap *TierSnapshot) {
			n := len(snap.Program.Funcs)
			frames(snap, func(fw *vm.FrameWire) { fw.Fn = n })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := gobRoundTrip(t, seed.Snapshot())
			if len(snap.Concrete) == 0 {
				t.Fatal("seed tier holds no checkpoints; the test is vacuous")
			}
			tc.corrupt(snap)
			tier := newSnapshotTestTier()
			if err := tier.Restore(snap); err == nil {
				t.Fatal("Restore accepted states that do not fit the program")
			}
			if s := tier.Stats(); s != (TierStats{}) || tier.Runs() != 0 {
				t.Fatalf("failed Restore left the tier warm: %+v, runs %d", s, tier.Runs())
			}
			if got := renderRun(runOnTier(t, tier, detectSeedSrc, []int64{3})); got != cold {
				t.Errorf("run after a failed Restore differs from a cold tier\n--- cold ---\n%s\n--- after ---\n%s", cold, got)
			}
		})
	}
}
