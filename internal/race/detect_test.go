package race

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/trace"
	"repro/internal/vm"
)

// snapSrc spreads two races down a trace with enough straight-line work
// between them for both periodic and cluster-point snapshots to fire.
const snapSrc = `
var a = 0
var b = 0
var acc = 0
fn wa() { a = 7 }
fn wb() { b = 7 }
fn main() {
	for i = 0, 80 { acc = acc + 1 }
	let ta = spawn wa()
	yield()
	a = 7
	join(ta)
	for i = 0, 80 { acc = acc + 1 }
	let tb = spawn wb()
	yield()
	b = 7
	join(tb)
	print("acc=", acc)
}`

func renderReports(rs []*Report, p *bytecode.Program) string {
	out := ""
	for _, r := range rs {
		out += r.Describe(p) + fmt.Sprintf("first@%d second@%d\n", r.First.Global, r.Second.Global)
	}
	return out
}

// TestDetectWithSnapshotsMatchesPlain asserts the snapshotting record
// loop is invisible: same trace, same reports (coordinates included),
// same stop result and step count as plain detection — parks only pause
// the machine, never change what it executes. It also pins the snapshot
// callback's contract: states arrive parked at increasing step counts,
// with the detector detached, and the replay position never exceeds the
// decisions recorded so far.
func TestDetectWithSnapshotsMatchesPlain(t *testing.T) {
	p := bytecode.MustCompile(snapSrc, "snaptest", bytecode.Options{})
	plain := Detect(p, nil, nil, 2_000_000)

	snaps := 0
	lastSteps := int64(-1)
	cfg := DetectConfig{
		SnapshotEvery: 64,
		Snapshot: func(st *vm.State, tr *trace.Trace, decisions int) {
			snaps++
			if st.Steps <= lastSteps {
				t.Errorf("snapshot steps not increasing: %d after %d", st.Steps, lastSteps)
			}
			lastSteps = st.Steps
			if decisions > len(tr.Decisions) {
				t.Errorf("snapshot position %d beyond recorded decisions %d", decisions, len(tr.Decisions))
			}
			for _, o := range st.Observers {
				if _, ok := o.(*Detector); ok {
					t.Error("snapshot state still carries the detector")
				}
			}
		},
	}
	got := DetectWith(context.Background(), p, nil, nil, 2_000_000, cfg)

	if snaps == 0 {
		t.Fatal("no snapshots fired")
	}
	if want, have := renderReports(plain.Reports, p), renderReports(got.Reports, p); want != have {
		t.Errorf("reports differ\n--- plain ---\n%s--- snapshotting ---\n%s", want, have)
	}
	if want, have := plain.Trace.String(), got.Trace.String(); want != have {
		t.Errorf("traces differ\n--- plain ---\n%s\n--- snapshotting ---\n%s", want, have)
	}
	if plain.Run.Kind != got.Run.Kind || plain.Run.Steps != got.Run.Steps {
		t.Errorf("run result differs: plain %v/%d vs snapshotting %v/%d",
			plain.Run.Kind, plain.Run.Steps, got.Run.Kind, got.Run.Steps)
	}
	if plain.Final.Steps != got.Final.Steps {
		t.Errorf("final states differ: %d vs %d steps", plain.Final.Steps, got.Final.Steps)
	}
}

// TestDetectWithSnapshotsBudget: a budget-bound snapshotting run must
// stop at exactly the same instruction as the plain run — the segmented
// loop's budget bookkeeping is exact.
func TestDetectWithSnapshotsBudget(t *testing.T) {
	p := bytecode.MustCompile(snapSrc, "snapbudget", bytecode.Options{})
	const budget = 300
	plain := Detect(p, nil, nil, budget)
	got := DetectWith(context.Background(), p, nil, nil, budget, DetectConfig{
		SnapshotEvery: 50,
		Snapshot:      func(*vm.State, *trace.Trace, int) {},
	})
	if plain.Run.Kind != vm.StopBudget || got.Run.Kind != vm.StopBudget {
		t.Fatalf("expected both runs budget-bound: %v vs %v", plain.Run.Kind, got.Run.Kind)
	}
	if plain.Final.Steps != got.Final.Steps || plain.Run.Steps != got.Run.Steps {
		t.Errorf("budget-bound runs diverge: plain %d/%d vs snapshotting %d/%d steps",
			plain.Final.Steps, plain.Run.Steps, got.Final.Steps, got.Run.Steps)
	}
}

// TestDetectClusterSnapshot: with the periodic cadence disabled, a
// snapshot still fires at each new race cluster's detection point, and
// it lands at or after the cluster's second (detection-point) access.
func TestDetectClusterSnapshot(t *testing.T) {
	p := bytecode.MustCompile(snapSrc, "snapcluster", bytecode.Options{})
	var snapSteps []int64
	got := DetectWith(context.Background(), p, nil, nil, 2_000_000, DetectConfig{
		SnapshotEvery: -1,
		Snapshot: func(st *vm.State, tr *trace.Trace, decisions int) {
			snapSteps = append(snapSteps, st.Steps)
		},
	})
	if len(got.Reports) < 2 {
		t.Fatalf("expected 2 races, got %d", len(got.Reports))
	}
	if len(snapSteps) != len(got.Reports) {
		t.Fatalf("snapshots = %d, want one per new cluster (%d)", len(snapSteps), len(got.Reports))
	}
	for i, rep := range got.Reports {
		if snapSteps[i] < rep.Second.Global {
			t.Errorf("cluster %d snapshot at %d precedes its detection point %d", i, snapSteps[i], rep.Second.Global)
		}
	}
}

// TestDetectAtPositions pins DetectConfig.At: a recording given
// positions deposits at each one it reaches and never past its end, its
// cadence and cluster deposits are exactly those of a recording without
// positions, and the trace and reports are unchanged.
func TestDetectAtPositions(t *testing.T) {
	p := bytecode.MustCompile(snapSrc, "snapat", bytecode.Options{})
	record := func(every int64, at []int64) ([]int64, *DetectionResult) {
		var steps []int64
		res := DetectWith(context.Background(), p, nil, nil, 2_000_000, DetectConfig{
			SnapshotEvery: every,
			At:            at,
			Snapshot: func(st *vm.State, tr *trace.Trace, decisions int) {
				steps = append(steps, st.Steps)
			},
		})
		return steps, res
	}
	base, plain := record(64, nil)
	// Clean park points of another cadence, so each position parks
	// exactly there, plus one position past the end of the trace.
	other, _ := record(50, nil)
	end := plain.Final.Steps
	at := append(slices.Clone(other), end+100)

	got, res := record(64, at)
	want := slices.Clone(base)
	for _, s := range other {
		if !slices.Contains(want, s) {
			want = append(want, s)
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("deposits with positions = %v\nwant the cadence deposits %v and the positions %v", got, base, other)
	}
	if len(base) == 0 || len(other) == 0 || slices.Equal(base, other) {
		t.Fatalf("cadences 64 and 50 deposit %v and %v; the test is vacuous", base, other)
	}
	if got[len(got)-1] > end {
		t.Errorf("deposit at %d, past the end of the trace (%d)", got[len(got)-1], end)
	}
	if want, have := renderReports(plain.Reports, p), renderReports(res.Reports, p); want != have {
		t.Errorf("reports differ\n--- without positions ---\n%s--- with ---\n%s", want, have)
	}
	if want, have := plain.Trace.String(), res.Trace.String(); want != have {
		t.Errorf("traces differ\n--- without positions ---\n%s\n--- with ---\n%s", want, have)
	}
}
