package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/bytecode"
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
	opts.DetectCheckpointEvery = 64
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

	// Serialize exactly like the durable store does (gob over the wire
	// struct), then restore into a fresh tier.
	snap := tierA.Snapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var decoded TierSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	tierB := NewCacheTier(DefaultOptions())
	if err := tierB.Restore(&decoded); err != nil {
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
