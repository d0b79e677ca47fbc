package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
)

// tierGoldenPath is a checked-in portend-tier/1 payload (the gob body
// dstore frames) captured from a populated tier before the persistent
// copy-on-write state representation landed. It pins the on-disk wire
// form: whatever the in-memory State looks like, tiers written by older
// builds must keep decoding, and re-encoding what was decoded must
// reproduce the same wire shape.
const tierGoldenPath = "testdata/tier_v1.golden"

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
		t.Fatal("golden seed run deposited no checkpoints; fixture would be vacuous")
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

// TestTierWireCompat asserts portend-tier/1 wire stability across the
// persistent-state refactor: the pre-refactor fixture decodes, restores
// into a live tier, and a fresh Snapshot of that tier re-encodes to the
// same bytes. Any representational change that leaks into the wire form
// (renamed fields, reordered canonical sorts, a persistent heap node
// that fails to flatten back to the flat sorted HeapBlockWire schema)
// breaks this byte-for-byte.
//
// Two deliberate normalizations, both properties of gob/Restore rather
// than of the state representation under test:
//   - gob type IDs are numbered in process-global registration order, so
//     the reference bytes are the fixture re-encoded in this process (the
//     fixture's own raw bytes pin decodability; TestTierSurvivesRestart
//     pins whole-file byte identity in the single-process server flow);
//   - Restore leaves the shared trace binding clear by design (the next
//     run binds its own recorded trace), so the decoded trace is carried
//     onto the re-snapshot before comparing. The trace is pure slices
//     whose bytes the determinism suites already pin.
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
		t.Fatalf("decode pre-refactor fixture: %v", err)
	}
	tier := NewCacheTier(DefaultOptions())
	if err := tier.Restore(&snap); err != nil {
		t.Fatalf("restore pre-refactor fixture: %v", err)
	}
	if tier.Stats().Checkpoints == 0 {
		t.Fatal("restored fixture holds no checkpoints; fixture is stale or truncated")
	}

	resnap := tier.Snapshot()
	resnap.Trace = snap.Trace

	// Encode reference and candidate only now, after Restore/Snapshot
	// finished all nested observer/controller encodes: both streams then
	// see the same global type-ID numbering and must be byte-identical.
	enc := func(v any) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b.Bytes()
	}
	ref, got := enc(&snap), enc(resnap)
	if !bytes.Equal(got, ref) {
		i := 0
		for i < len(got) && i < len(ref) && got[i] == ref[i] {
			i++
		}
		t.Fatalf("restored tier re-encodes to different bytes (%d vs %d, first diff at %d): portend-tier/1 wire form drifted",
			len(got), len(ref), i)
	}

	// The restored snapshot must also be live, not just re-encodable: a
	// run against it resumes warm and yields the same verdicts as a cold
	// tier, which is what the durable store promises across restarts.
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
}

// tierSymGoldenPath is a second portend-tier/1 payload, written by the
// build that still had the sibling-outcome memo, the adaptive
// solver-cache cap and the exploration-mainline checkpoint store:
// siblingSkipProg analyzed on a tier with NoStaticPrune (symOptions).
// Both fixtures carry a Solver section (the deleted solver cache) that
// the decoder no longer declares; this one also carries the Sym section
// of mainline checkpoints with their pending forks and fork IDs, a memo
// table, and the solver section's Cap, Resizes and per-entry
// SearchNodes. gob skips all of them. Nothing can write those fields
// any more, so the fixture has no regeneration path.
const tierSymGoldenPath = "testdata/tier_v1_sym.golden"

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

// TestTierWireCompatSymbolic pins that tiers written before the memo,
// the adaptive-sizing fields and the mainline store were dropped still
// restore, and that what they restore is live: the replay checkpoints
// come back, and a run on the restored tier yields the cold tier's
// verdicts, items and branches.
func TestTierWireCompatSymbolic(t *testing.T) {
	raw, err := os.ReadFile(tierSymGoldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", tierSymGoldenPath, err)
	}
	var snap TierSnapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatalf("decode symbolic fixture: %v", err)
	}
	tier := NewCacheTier(symOptions())
	if err := tier.Restore(&snap); err != nil {
		t.Fatalf("restore symbolic fixture: %v", err)
	}
	if tier.Stats().Checkpoints == 0 {
		t.Fatal("restored fixture holds no replay checkpoints; fixture is stale or truncated")
	}

	resCold := runOnTierWith(t, NewCacheTier(symOptions()), siblingSkipProg, symOptions(), []int64{2})
	resWarm := runOnTierWith(t, tier, siblingSkipProg, symOptions(), []int64{2})
	if a, b := renderRun(resCold), renderRun(resWarm); a != b {
		t.Errorf("fixture-restored tier changed verdicts\n--- cold ---\n%s\n--- restored ---\n%s", a, b)
	}
	for i := range resCold.Verdicts {
		c, w := resCold.Verdicts[i].Stats, resWarm.Verdicts[i].Stats
		if c.PathItemsRun != w.PathItemsRun || c.Branches != w.Branches {
			t.Errorf("verdict %d: restored tier ran %d items / %d branches, cold tier %d / %d",
				i, w.PathItemsRun, w.Branches, c.PathItemsRun, c.Branches)
		}
	}
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
