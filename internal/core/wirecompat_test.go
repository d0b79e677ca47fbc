package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// tierGoldenPath is a checked-in portend-tier/2 payload (the gob body
// dstore frames): the positions and counters of a tier after one run of
// detectSeedSrc. It pins the on-disk wire form: tiers written by older
// builds of this schema must keep decoding and restoring, and
// re-snapshotting what was restored must reproduce the same bytes.
const tierGoldenPath = "testdata/tier_v2.golden"

// Regenerate (only when the schema version is deliberately bumped) with:
//
//	PORTEND_WRITE_TIER_GOLDEN=1 go test ./internal/core -run TestTierWireCompat
func writeTierGolden(t *testing.T) []byte {
	t.Helper()
	tier := newSnapshotTestTier()
	res := runOnTier(t, tier, detectSeedSrc, []int64{3})
	if len(res.Verdicts) < 3 {
		t.Fatalf("golden seed run produced %d verdicts, want >= 3", len(res.Verdicts))
	}
	if tier.Stats().Checkpoints == 0 {
		t.Fatal("golden seed run kept no checkpoints; fixture would be vacuous")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tier.Snapshot()); err != nil {
		t.Fatalf("encode golden tier: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(tierGoldenPath), 0o755); err != nil {
		t.Fatalf("mkdir testdata: %v", err)
	}
	if err := os.WriteFile(tierGoldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write golden tier: %v", err)
	}
	return buf.Bytes()
}

// TestTierWireCompat asserts portend-tier/2 wire stability: the fixture
// decodes, restores into a live tier, and a fresh Snapshot of that tier
// re-encodes to the same bytes. gob numbers type IDs in process-global
// registration order, so the reference bytes are the fixture re-encoded
// in this process; the fixture's own raw bytes pin decodability.
func TestTierWireCompat(t *testing.T) {
	raw, err := os.ReadFile(tierGoldenPath)
	if os.Getenv("PORTEND_WRITE_TIER_GOLDEN") == "1" {
		raw, err = writeTierGolden(t), nil
	}
	if err != nil {
		t.Fatalf("read %s (regenerate with PORTEND_WRITE_TIER_GOLDEN=1): %v", tierGoldenPath, err)
	}

	var snap TierSnapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	tier := NewCacheTier(DefaultOptions())
	if err := tier.Restore(&snap); err != nil {
		t.Fatalf("restore fixture: %v", err)
	}
	if tier.Stats().Checkpoints == 0 {
		t.Fatal("restored fixture holds no positions; fixture is stale or truncated")
	}

	enc := func(v any) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b.Bytes()
	}
	if ref, got := enc(&snap), enc(tier.Snapshot()); !bytes.Equal(got, ref) {
		t.Fatalf("restored tier re-encodes to different bytes (%d vs %d): portend-tier/2 wire form drifted",
			len(got), len(ref))
	}

	// The restored tier must also be live, not just re-encodable: a run
	// on it resumes warm, yields the same verdicts as a cold tier, and
	// keeps the same positions.
	cold := newSnapshotTestTier()
	resCold := runOnTier(t, cold, detectSeedSrc, []int64{3})
	before := tier.Stats().CheckpointHits
	resWarm := runOnTier(t, tier, detectSeedSrc, []int64{3})
	if a, b := renderRun(resCold), renderRun(resWarm); a != b {
		t.Errorf("fixture-restored tier changed verdicts\n--- cold ---\n%s\n--- restored ---\n%s", a, b)
	}
	if tier.Stats().CheckpointHits-before < 1 {
		t.Error("run on fixture-restored tier reported no cross-run checkpoint hits")
	}
	if got, want := tier.Snapshot().Positions, snap.Positions; !slices.Equal(got, want) {
		t.Errorf("run on fixture-restored tier kept positions %v, fixture %v", got, want)
	}
}

// siblingSkipProg forks an else-arm sibling on input() that bypasses
// every race and only touches `done`, so every race's exploration runs
// that sibling beside its mainline.
const siblingSkipProg = `
var g0 = 0
var g1 = 0
var g2 = 0
var g3 = 0
var done = 0
fn w0() { g0 = 7 }
fn w1() { g1 = 7 }
fn w2() { g2 = 7 }
fn w3() { g3 = 7 }
fn main() {
	let x = input()
	if x < 100 {
		let t0 = spawn w0()
		yield()
		g0 = 7
		join(t0)
		let t1 = spawn w1()
		yield()
		g1 = 7
		join(t1)
		let t2 = spawn w2()
		yield()
		g2 = 7
		join(t2)
		let t3 = spawn w3()
		yield()
		g3 = 7
		join(t3)
	}
	done = 1
	print("done=", done + x)
}`

// symOptions disables the static dead-item prune, which would otherwise
// skip siblingSkipProg's bypass siblings before they run.
func symOptions() Options {
	o := snapshotTestOptions()
	o.NoStaticPrune = true
	return o
}

// TestResumedPendingForksPreserveVerdicts pins that on siblingSkipProg,
// whose bypass sibling is forked before every race, the caches change
// nothing but where replays start: the cached run runs the same items
// and branches per race as a cache-off run and renders exactly like it.
func TestResumedPendingForksPreserveVerdicts(t *testing.T) {
	warm := classify(t, siblingSkipProg, symOptions(), nil, []int64{2})
	coldOpts := symOptions()
	coldOpts.NoCache = true
	cold := classify(t, siblingSkipProg, coldOpts, nil, []int64{2})
	if len(warm.Verdicts) != 4 {
		t.Fatalf("want 4 verdicts, got %d", len(warm.Verdicts))
	}
	if a, b := renderRun(warm), renderRun(cold); a != b {
		t.Errorf("caches changed verdicts\n--- on ---\n%s\n--- off ---\n%s", a, b)
	}
	for i := range warm.Verdicts {
		w, c := warm.Verdicts[i].Stats, cold.Verdicts[i].Stats
		if w.PathItemsRun != c.PathItemsRun || w.Branches != c.Branches {
			t.Errorf("verdict %d: cached run ran %d items / %d branches, cache-off run %d / %d",
				i, w.PathItemsRun, w.Branches, c.PathItemsRun, c.Branches)
		}
	}
}
