package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/ckpt"
	"repro/internal/dstore"
)

// positionsFrom maps fuzz bytes to a position list: consecutive signed
// varints, up to twice the store bound, so lists can be unsorted,
// negative, duplicated, past the end of any trace or over-long.
func positionsFrom(data []byte) []int64 {
	var ps []int64
	for len(data) > 0 && len(ps) < 2*ckpt.DefaultMax {
		v, n := binary.Varint(data)
		if n <= 0 {
			break
		}
		ps = append(ps, v)
		data = data[n:]
	}
	return ps
}

// framed wraps payload in a valid dstore header and checksum, so the
// tier decoder sees arbitrary payload bytes.
func framed(payload []byte) []byte {
	buf := append([]byte(dstore.Schema+"\n"), binary.BigEndian.AppendUint64(nil, uint64(len(payload)))...)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// FuzzTierRestore drives the restore path with arbitrary input: dstore
// loads the bytes as a whole tier file and as a checksummed payload, and
// Restore takes the loaded snapshot and the bytes read as a position
// list. A restore either fails, leaving the tier cold, or yields a tier
// on which a racy program renders exactly like a cache-off run. Nothing
// on the path may panic.
func FuzzTierRestore(f *testing.F) {
	p := bytecode.MustCompile(detectSeedSrc, "fuzztier", bytecode.Options{})
	inputs := []int64{3}
	off := snapshotTestOptions()
	off.NoCache = true
	want := renderRun(Run(p, nil, inputs, off))

	dir, err := dstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const key = "fuzz"
	file := filepath.Join(dir.Path(), key+".tier")

	check := func(t *testing.T, snap *TierSnapshot) {
		tier := newSnapshotTestTier()
		if err := tier.Restore(snap); err != nil {
			if s := tier.Stats(); s != (TierStats{}) || tier.Runs() != 0 {
				t.Fatalf("failed Restore changed the tier: %+v, runs %d", s, tier.Runs())
			}
			return
		}
		opts := snapshotTestOptions()
		opts.Tier = tier
		end := tier.BeginRun()
		res := Run(p, nil, inputs, opts)
		end()
		if got := renderRun(res); got != want || len(res.Errors) > 0 {
			t.Fatalf("positions %v changed the run (errors %v)\n--- cache off ---\n%s\n--- restored ---\n%s",
				snap.Positions, res.Errors, want, got)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, framed(data)} {
			if err := os.WriteFile(file, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var snap TierSnapshot
			if dir.Load(key, &snap) == nil {
				check(t, &snap)
			}
		}
		check(t, &TierSnapshot{Positions: positionsFrom(data)})
	})
}
