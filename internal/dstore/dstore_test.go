package dstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

type payload struct {
	Name string
	Vals []int64
}

func open(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTrip(t *testing.T) {
	d := open(t)
	in := payload{Name: "tier", Vals: []int64{1, 2, 3}}
	if err := d.Write("abc123", &in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("abc123", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Vals) != 3 || out.Vals[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestLoadMissing(t *testing.T) {
	d := open(t)
	var out payload
	if err := d.Load("nothere", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRejectsBadKeys(t *testing.T) {
	d := open(t)
	for _, key := range []string{"", "a/b", `a\b`, "..", "a.tier"} {
		if err := d.Write(key, &payload{}); err == nil {
			t.Errorf("Write(%q) accepted, want error", key)
		}
		if err := d.Load(key, &payload{}); err == nil {
			t.Errorf("Load(%q) accepted, want error", key)
		}
	}
}

// corrupt flips one payload byte; the CRC must catch it.
func TestCorruptFileQuarantined(t *testing.T) {
	d := open(t)
	if err := d.Write("k1", &payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Path(), "k1.tier")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-8] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out payload
	if err := d.Load("k1", &out); !errors.Is(err, ErrBadFile) {
		t.Fatalf("corrupt load err = %v, want ErrBadFile", err)
	}
	if err := d.Quarantine("k1"); err != nil {
		t.Fatal(err)
	}
	// The key no longer resolves, but the evidence file remains.
	if err := d.Load("k1", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-quarantine load err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	d := open(t)
	path := filepath.Join(d.Path(), "k2.tier")
	if err := os.WriteFile(path, []byte("portend-tier/0\njunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("k2", &out); !errors.Is(err, ErrBadFile) {
		t.Fatalf("skewed load err = %v, want ErrBadFile", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	d := open(t)
	if err := d.Write("k3", &payload{Name: "x", Vals: []int64{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Path(), "k3.tier")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("k3", &out); !errors.Is(err, ErrBadFile) {
		t.Fatalf("truncated load err = %v, want ErrBadFile", err)
	}
}

// A header claiming more payload than any file holds is rejected, not
// sliced: a length near 2^64 used to wrap the bounds check and panic.
func TestHugeLengthRejected(t *testing.T) {
	d := open(t)
	raw := append([]byte(Schema+"\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4)
	if err := os.WriteFile(filepath.Join(d.Path(), "k4.tier"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("k4", &out); !errors.Is(err, ErrBadFile) {
		t.Fatalf("huge-length load err = %v, want ErrBadFile", err)
	}
}

// An injected write failure must leave the previous live file intact.
func TestInjectedWriteFailureKeepsOldFile(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := d.Write("k4", &payload{Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Set(fault.DStoreWrite + ":1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("k4", &payload{Name: "v2"}); err == nil {
		t.Fatal("injected write succeeded, want error")
	}
	var out payload
	if err := d.Load("k4", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "v1" {
		t.Fatalf("old file clobbered: got %q, want v1", out.Name)
	}
}

// An injected torn write reaches the live name but fails verification,
// and quarantining it restores a cold (not wrong) state.
func TestInjectedTruncateCaughtByCRC(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := fault.Set(fault.DStoreTruncate + ":1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("k5", &payload{Name: "torn", Vals: []int64{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if fault.Fired(fault.DStoreTruncate) != 1 {
		t.Fatal("truncate fault did not fire")
	}
	var out payload
	if err := d.Load("k5", &out); !errors.Is(err, ErrBadFile) {
		t.Fatalf("torn load err = %v, want ErrBadFile", err)
	}
	if err := d.Quarantine("k5"); err != nil {
		t.Fatal(err)
	}
	if err := d.Load("k5", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-quarantine err = %v, want ErrNotFound", err)
	}
}

func TestInjectedLoadFailure(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	d := open(t)
	if err := d.Write("k6", &payload{Name: "fine"}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Set(fault.TierLoadFail + ":1"); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("k6", &out); err == nil {
		t.Fatal("injected load succeeded, want error")
	}
	// The injected failure is transient, not corruption: the next load works.
	if err := d.Load("k6", &out); err != nil || out.Name != "fine" {
		t.Fatalf("post-fault load = %+v, %v", out, err)
	}
}

func TestScanSkipsTempAndQuarantine(t *testing.T) {
	d := open(t)
	for _, k := range []string{"b1", "a1"} {
		if err := d.Write(k, &payload{Name: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(d.Path(), "c1.tier.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("q1", &payload{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine("q1"); err != nil {
		t.Fatal(err)
	}
	keys, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a1" || keys[1] != "b1" {
		t.Fatalf("Scan = %v, want [a1 b1]", keys)
	}
}

func TestRemove(t *testing.T) {
	d := open(t)
	if err := d.Write("k7", &payload{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("k7"); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := d.Load("k7", &out); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-remove err = %v, want ErrNotFound", err)
	}
	if err := d.Remove("k7"); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}
