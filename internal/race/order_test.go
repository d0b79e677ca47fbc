package race

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
)

// multiReaderSrc has one write (line 11) that races with three earlier
// reads: two threads read x at line 3, a third at line 7. Round-robin
// detection runs every reader before the writer, so the write meets all
// three reads at once.
const multiReaderSrc = `var x = 0
fn rd() {
  let a = x
  print("a=", a)
}
fn rd2() {
  let b = x
  print("b=", b)
}
fn wr() {
  x = 1
}
fn main() {
  let t1 = spawn rd()
  let t2 = spawn rd()
  let t4 = spawn rd2()
  let t3 = spawn wr()
  join(t1)
  join(t2)
  join(t4)
  join(t3)
}`

// TestMultiReaderReportOrder pins the order in which a write reports
// the reads it races with: ascending reader TID. The line-3 race is
// found first, against thread 1's read (thread 2's identical read is a
// second instance), and the line-7 race second, against thread 3. Any
// order the trace does not fix, such as map order, would let both the
// report order and the line-3 race's racing thread vary between
// identical runs.
func TestMultiReaderReportOrder(t *testing.T) {
	p := bytecode.MustCompile(multiReaderSrc, "multireader", bytecode.Options{})
	for run := 0; run < 100; run++ {
		reps := Detect(p, nil, nil, 1_000_000).Reports
		if len(reps) != 2 {
			t.Fatalf("run %d: %d races, want 2", run, len(reps))
		}
		for i, want := range []struct {
			lines    [2]int32
			firstTID int
		}{{[2]int32{3, 11}, 1}, {[2]int32{7, 11}, 3}} {
			r := reps[i]
			if got := [2]int32{r.Key.LnA, r.Key.LnB}; got != want.lines || r.First.TID != want.firstTID {
				t.Fatalf("run %d: race %d is %s with First.TID %d, want L%d-L%d with First.TID %d",
					run, i, r.ID(), r.First.TID, want.lines[0], want.lines[1], want.firstTID)
			}
		}
	}
}

// TestDetectorAllocFree guards the detector's per-event paths: once a
// location has been seen, a read and a write of it allocate nothing —
// for a global element and a heap cell — and once a mutex has been
// released, a lock/unlock pair of it allocates nothing.
func TestDetectorAllocFree(t *testing.T) {
	st := &vm.State{}
	for _, loc := range []vm.Loc{
		{Space: vm.SpaceGlobal, Obj: 2, Elem: 5},
		{Space: vm.SpaceHeap, Obj: 4, Elem: 1},
	} {
		d := NewDetector()
		pair := func() {
			d.OnAccess(st, 1, loc, false, bytecode.PCRef{Line: 3}, 0)
			d.OnAccess(st, 1, loc, true, bytecode.PCRef{Line: 4}, 0)
		}
		pair() // first touch
		if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
			t.Errorf("%v: read+write pair allocates %v times, want 0", loc, allocs)
		}
	}

	// A lock/unlock pair reuses the mutex's clock.
	d := NewDetector()
	lockPair := func() {
		d.OnSync(st, vm.SyncEvent{Kind: vm.EvAcquire, TID: 1, Obj: 0})
		d.OnSync(st, vm.SyncEvent{Kind: vm.EvRelease, TID: 1, Obj: 0})
	}
	lockPair() // first lock
	if allocs := testing.AllocsPerRun(100, lockPair); allocs != 0 {
		t.Errorf("lock/unlock pair allocates %v times, want 0", allocs)
	}
}
