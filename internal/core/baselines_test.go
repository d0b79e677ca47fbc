package core

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/race"
)

// detectOne compiles src, runs detection, and returns the report for the
// named global plus the pieces a baseline classifier needs.
func detectOne(t *testing.T, src, global string, inputs []int64) (*Classifier, *race.Report, *race.DetectionResult) {
	t.Helper()
	p := bytecode.MustCompile(src, "base", bytecode.Options{})
	det := race.Detect(p, nil, inputs, 3_000_000)
	gid := int64(p.GlobalID(global))
	for _, rep := range det.Reports {
		if rep.Key.Obj == gid {
			return New(p, DefaultOptions()), rep, det
		}
	}
	t.Fatalf("no race on %q", global)
	return nil, nil, nil
}

func TestRecordReplayAnalyzerStatesSame(t *testing.T) {
	// Redundant write: reversal leaves identical shared memory.
	cl, rep, det := detectOne(t, kWitnessProg, "w", nil)
	v, err := cl.RecordReplayAnalyzer(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if v.Harmful || v.StatesDiffer || v.ReplayFailed {
		t.Fatalf("redundant write should be harmless/same: %+v", v)
	}
}

func TestRecordReplayAnalyzerStatesDiffer(t *testing.T) {
	// Different-value writes: states differ, so the analyzer calls a
	// perfectly harmless race harmful — the paper's core criticism.
	cl, rep, det := detectOne(t, statesDifferProg, "lvl", nil)
	v, err := cl.RecordReplayAnalyzer(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Harmful || !v.StatesDiffer {
		t.Fatalf("different-value writes should diff: %+v", v)
	}
}

func TestRecordReplayAnalyzerReplayFailure(t *testing.T) {
	// Ad-hoc protected data: the alternate cannot be enforced; the
	// analyzer conservatively reports harmful (its 74% false positive
	// source, §2.1).
	cl, rep, det := detectOne(t, adHocProg, "data", nil)
	v, err := cl.RecordReplayAnalyzer(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Harmful || !v.ReplayFailed {
		t.Fatalf("unenforceable alternate should be a replay failure: %+v", v)
	}
}

func TestRecordReplayAnalyzerMissesOutputDiff(t *testing.T) {
	// The outDiff race's post-race memory is identical (the reversed
	// pair ends with the same write); state comparison calls it
	// harmless even though the printed value differs.
	cl, rep, det := detectOne(t, outDiffProg, "v", nil)
	v, err := cl.RecordReplayAnalyzer(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if v.Harmful {
		t.Fatalf("state comparison should miss the output difference: %+v", v)
	}
}

func TestAdHocDetectorPositive(t *testing.T) {
	cl, rep, det := detectOne(t, adHocProg, "flag", nil)
	v, err := cl.AdHocDetector(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Classified || !v.SingleOrdering {
		t.Fatalf("busy-wait flag is ad-hoc sync: %+v", v)
	}
	cl2, rep2, det2 := detectOne(t, adHocProg, "data", nil)
	v2, err := cl2.AdHocDetector(rep2, det2.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Classified || !v2.SingleOrdering {
		t.Fatalf("flag-protected data is ad-hoc sync: %+v", v2)
	}
}

func TestAdHocDetectorNegative(t *testing.T) {
	for _, tc := range []struct{ src, global string }{
		{kWitnessProg, "w"},
		{outDiffProg, "v"},
		{crashAltProg, "idx"},
	} {
		cl, rep, det := detectOne(t, tc.src, tc.global, nil)
		v, err := cl.AdHocDetector(rep, det.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if v.Classified {
			t.Fatalf("%s: ad-hoc detector should stay silent, got %+v", tc.global, v)
		}
	}
}

func TestBaselinesAgreeWithPortendOnMicro(t *testing.T) {
	// On the micro-benchmark patterns the baselines and Portend agree:
	// redundant writes are harmless by all measures.
	cl, rep, det := detectOne(t, kWitnessProg, "w", nil)
	rr, err := cl.RecordReplayAnalyzer(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := cl.Classify(rep, det.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Harmful || pv.Class != KWitnessHarmless {
		t.Fatalf("disagreement on the trivially harmless race: rr=%+v portend=%s", rr, pv)
	}
}
