package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
)

// spinThread is one thread of a synthetic spin: ticks 1..base carry a
// distinct sentinel read each, and every later tick t repeats
// pattern[(t-base-1) % len(pattern)].
type spinThread struct {
	base    int64
	pattern []spinEvent // fn < 0 with Obj < 0: a tick without an event
	end     int64       // final tick count
	recur   int64       // tick at the recurrence that proved the period
}

// sentinel marks a read that only tick t made (patterns read globals 0..2).
func sentinel(t int64) Loc  { return Loc{Space: SpaceGlobal, Obj: 7, Elem: t} }
func isSentinel(l Loc) bool { return l == sentinel(l.Elem) }

// tick feeds tick t of th to m through the interpreter's tracking calls.
func (th *spinThread) tick(m *Machine, tid int, t int64) {
	if t <= th.base {
		m.trackSpinPC(tid, bytecode.Instr{Op: bytecode.LOADG}, bytecode.PCRef{})
		m.trackSpinRead(tid, sentinel(t))
		return
	}
	e := th.pattern[(t-th.base-1)%int64(len(th.pattern))]
	switch {
	case e.fn >= 0:
		m.trackSpinPC(tid, bytecode.Instr{Op: bytecode.JZ}, bytecode.PCRef{Fn: int(e.fn), PC: int(e.pc)})
	case e.loc.Obj >= 0:
		m.trackSpinPC(tid, bytecode.Instr{Op: bytecode.LOADE}, bytecode.PCRef{})
		m.trackSpinRead(tid, e.loc)
	default:
		m.trackSpinPC(tid, bytecode.Instr{Op: bytecode.NOP}, bytecode.PCRef{})
	}
}

// windowDump renders one window's visit counts and read set in touched
// order.
func windowDump(c *pcCounts, s *locSet) string {
	var b strings.Builder
	for _, k := range c.touched {
		fmt.Fprintf(&b, "%d:%d=%d ", k>>32, uint32(k), c.funcs[k>>32][uint32(k)])
	}
	b.WriteString("| ")
	for _, l := range s.touched {
		b.WriteString(l.String() + " ")
	}
	return b.String()
}

func spinDumpTID(m *Machine, tid int) string {
	si := m.spin[tid]
	return fmt.Sprintf("ticks=%d\ncur  %s\nprev %s", si.ticks,
		windowDump(&si.visits, &si.reads), windowDump(&si.prevVisits, &si.prevReads))
}

// TestSpinWindowRebuildMatchesTicking checks the period skip's window
// rebuild against ticking every event through trackSpinPC and
// trackSpinRead: random periodic threads (periods 1..400, jumps in two
// functions, global reads below and above element 64, heap reads) are
// ticked for real up to a recurrence, fast-forwarded to one period
// before their final tick count, ticked through that period interleaved
// while it is recorded, and rebuilt. Both windows must then match the
// reference in counts, sets and touched order, and keep matching over a
// remainder ticked on top. The guard must admit exactly the threads
// whose reference windows hold no tick at or before the base, which
// carry a sentinel read each.
func TestSpinWindowRebuildMatchesTicking(t *testing.T) {
	p := compileSrc(t, `
var g[200]
fn f(x) {
	let i = 0
	while i < x { g[i] = g[i] + i; i = i + 1 }
	return i
}
fn main() {
	let s = 0
	while s < 9 { s = s + f(s) }
	print(s)
}`)
	if len(p.Funcs) < 2 {
		t.Fatalf("want two functions, got %d", len(p.Funcs))
	}
	const w = spinWindow
	rng := rand.New(rand.NewSource(17))
	var ends []int64
	for _, c := range []int64{1, 2, 3} {
		ends = append(ends, c*w-1, c*w, c*w+1)
	}
	ends = append(ends, 0, 0, 0, 0, 0, 0) // drawn per case below
	var admitted, rejected, zeroBase int
	for n := 0; n < 240; n++ {
		nthreads := 1 + rng.Intn(3)
		threads := make([]*spinThread, nthreads)
		for i := range threads {
			end := ends[rng.Intn(len(ends))]
			switch {
			case end > 0:
			case n%3 == 0:
				end = 2 + rng.Int63n(w-2) // below one window
			case n%3 == 1:
				end = w + rng.Int63n(w) // in [W, 2W)
			default:
				end = 4*w + rng.Int63n(w) // well past two windows
			}
			d := 1 + rng.Int63n(min(400, end/2))
			var base int64
			if rng.Intn(3) == 0 {
				// Base 0: the period divides the final tick count.
				for end%d != 0 {
					d--
				}
			} else {
				base = end - (2+rng.Int63n(end/d-1))*d
			}
			if base == 0 {
				zeroBase++
			}
			th := &spinThread{base: base, end: end}
			th.recur = base + (1+rng.Int63n((end-base)/d-1))*d
			fn, pcs := rng.Intn(2), 1+rng.Intn(4)
			for j := int64(0); j < d; j++ {
				e := spinEvent{fn: -1, loc: Loc{Obj: -1}}
				switch r := rng.Intn(10); {
				case r < 3:
					e.fn = int32(fn)
					if rng.Intn(8) == 0 {
						e.fn = int32(1 - fn)
					}
					e.pc = int32(rng.Intn(min(pcs, len(p.Funcs[e.fn].Code))))
				case r < 5:
					e.loc = Loc{Space: SpaceGlobal, Obj: int64(rng.Intn(3)), Elem: int64(rng.Intn(130))}
				case r < 6:
					e.loc = Loc{Space: SpaceHeap, Obj: int64(1 + rng.Intn(2)), Elem: int64(rng.Intn(70))}
				}
				th.pattern = append(th.pattern, e)
			}
			threads[i] = th
		}

		ref := NewMachine(NewState(p, nil, nil), NewRoundRobin())
		ref.SpinTrack = true
		for tid, th := range threads {
			for tk := int64(1); tk <= th.end; tk++ {
				th.tick(ref, tid, tk)
			}
		}

		m := NewMachine(NewState(p, nil, nil), NewRoundRobin())
		m.SpinTrack = true
		for tid, th := range threads {
			for tk := int64(1); tk <= th.recur; tk++ {
				th.tick(m, tid, tk)
			}
			d := int64(len(th.pattern))
			m.spin[tid].ticks = th.end - d // the arithmetic skip
			m.probe.ticks = append(m.probe.ticks, d)
		}
		// The recorded period, threads interleaved.
		m.probe.rec = spinEvents.Get().(*[]spinEvent)
		*m.probe.rec = (*m.probe.rec)[:0]
		next := make([]int64, nthreads)
		for tid, th := range threads {
			next[tid] = th.end - int64(len(th.pattern)) + 1
		}
		for left := true; left; {
			left = false
			tid := rng.Intn(nthreads)
			for i := 0; i < nthreads; i++ {
				if u := (tid + i) % nthreads; next[u] <= threads[u].end {
					threads[u].tick(m, u, next[u])
					next[u]++
					left = true
					break
				}
			}
		}
		m.rebuildWindows()

		for tid, th := range threads {
			want := spinDumpTID(ref, tid)
			si := ref.spin[tid]
			reaches := slices.ContainsFunc(si.reads.touched, isSentinel) || slices.ContainsFunc(si.prevReads.touched, isSentinel)
			if admit := firstWindowTick(th.end) > th.base; admit == reaches {
				t.Fatalf("case %d thread %d (base %d, period %d, end %d): guard admits %v, reference windows reach the base: %v\n%s",
					n, tid, th.base, len(th.pattern), th.end, admit, reaches, want)
			}
			if reaches {
				rejected++
				continue
			}
			admitted++
			if got := spinDumpTID(m, tid); got != want {
				t.Fatalf("case %d thread %d (base %d, period %d, end %d): rebuilt windows differ\nticked:\n%s\nrebuilt:\n%s",
					n, tid, th.base, len(th.pattern), th.end, want, got)
			}
			// The remainder interprets on top of the rebuilt windows.
			for tk := th.end + 1; tk <= th.end+int64(len(th.pattern)); tk++ {
				th.tick(ref, tid, tk)
				th.tick(m, tid, tk)
			}
			if got, want := spinDumpTID(m, tid), spinDumpTID(ref, tid); got != want {
				t.Fatalf("case %d thread %d: windows differ after the remainder\nticked:\n%s\nrebuilt:\n%s", n, tid, want, got)
			}
		}
	}
	t.Logf("%d threads admitted (%d with base 0), %d rejected by the guard", admitted, zeroBase, rejected)
	if admitted == 0 || rejected == 0 || zeroBase == 0 {
		t.Fatal("the cases miss a side of the guard or a zero base")
	}
}

// A thread that ticks only a few times per period keeps windows reaching
// back before the snapshot, to its ticks ahead of its loop (here the
// read of pre): the guard must refuse the skip, since the period cannot
// rebuild them.
func TestPeriodSkipGuardKeepsPrefixWindows(t *testing.T) {
	o := spinPair(t, `
var flag = 0
var pre = 0
fn setter() { flag = 1 }
fn waiter() {
	let z = pre
	while flag == 0 { yield() }
}
fn main() {
	let s = spawn setter()
	let w = spawn waiter()
	while flag == 0 {
		let i = 0
		while i < 40 { i = i + 1 }
		yield()
	}
}`, 100_000, suspend(1))
	if o.res.Kind != StopBudget || o.skipped != 0 {
		t.Fatalf("want an interpreted budget stop, got %+v skipped %d", o.res, o.skipped)
	}
	if d := o.diags[2]; !d.Looping || len(d.SharedReads) != 2 {
		t.Fatalf("waiter diagnosis %+v, want a loop over reads of pre and flag", d)
	}
}
