package vm

import (
	"sort"

	"repro/internal/bytecode"
)

// spinInfo tracks, per thread, how often each jump instruction executed
// and which shared locations were read since tracking started. It backs
// the timeout diagnosis of Algorithm 1 (§3.2, §3.5): when enforcing the
// alternate ordering times out, a thread stuck in a loop whose exit
// condition reads a shared variable that some other live thread may still
// write is spinning on ad-hoc synchronization (race is "single ordering");
// a loop whose exit condition no live thread can change is an infinite
// loop (race is "spec violated"), following the criterion of [60].
//
// Visit counts live in dense per-function slabs indexed by pc (pcCounts)
// and the read set in dense per-object bit words (locSet) rather than
// hash maps: trackSpinPC and trackSpinRead run on every interpreted
// instruction and shared read of an enforcement, and map inserts plus
// Loc hashing accounted for a measurable share of classification time.
// The current and previous windows double-buffer both, so a window
// rollover zeroes the touched entries in place instead of allocating;
// both are held by value, so a thread's tracking costs a handful of
// slab allocations per Machine and none per window.
type spinInfo struct {
	visits pcCounts
	reads  locSet
	// previous window, kept so a diagnosis right after a reset still
	// sees a full window's worth of data
	prevVisits pcCounts
	prevReads  locSet
	ticks      int64
}

// pcCounts is a dense pc-indexed visit counter, one lazily allocated
// slab per function. touched records which counters are nonzero so reset
// and iteration cost O(distinct pcs), not O(program size).
type pcCounts struct {
	funcs   [][]int32
	touched []uint64 // packed fn<<32|pc of nonzero counters
}

// add counts n visits of pc in fn (n > 0).
func (c *pcCounts) add(p *bytecode.Program, fn, pc int, n int32) {
	if c.funcs == nil {
		c.funcs = make([][]int32, len(p.Funcs))
		c.touched = make([]uint64, 0, 8)
	}
	s := c.funcs[fn]
	if s == nil {
		s = make([]int32, len(p.Funcs[fn].Code))
		c.funcs[fn] = s
	}
	if s[pc] == 0 {
		c.touched = append(c.touched, uint64(uint32(fn))<<32|uint64(uint32(pc)))
	}
	s[pc] += n
}

// reset zeroes the touched counters, keeping the slabs for reuse.
func (c *pcCounts) reset() {
	for _, k := range c.touched {
		c.funcs[k>>32][uint32(k)] = 0
	}
	c.touched = c.touched[:0]
}

// anyAtLeast reports whether some counter reached threshold.
func (c *pcCounts) anyAtLeast(threshold int32) bool {
	for _, k := range c.touched {
		if c.funcs[k>>32][uint32(k)] >= threshold {
			return true
		}
	}
	return false
}

// locSet is a dense set of shared locations, laid out like pcCounts:
// per address space one bit word per object for elements 0..63 — so
// scalars and short arrays cost no allocation of their own — and a
// lazily grown overflow bitset per object for higher elements, plus a
// touched list (insertion order) so reset and iteration cost
// O(members).
type locSet struct {
	low     [2][]uint64   // [Space][Obj]: bit Elem, for Elem < 64
	high    [2][][]uint64 // [Space][Obj]: bit Elem-64, for Elem >= 64
	touched []Loc
}

// word returns the bit word holding l, growing the layout to reach it.
func (s *locSet) word(l Loc) *uint64 {
	obj := int(l.Obj)
	if l.Elem < 64 {
		low := s.low[l.Space]
		if obj >= len(low) {
			low = append(low, make([]uint64, obj+1-len(low))...)
			s.low[l.Space] = low
		}
		return &low[obj]
	}
	high := s.high[l.Space]
	if obj >= len(high) {
		high = append(high, make([][]uint64, obj+1-len(high))...)
		s.high[l.Space] = high
	}
	w := int(l.Elem-64) >> 6
	if w >= len(high[obj]) {
		high[obj] = append(high[obj], make([]uint64, w+1-len(high[obj]))...)
	}
	return &high[obj][w]
}

func (s *locSet) add(l Loc) {
	if w, bit := s.word(l), uint64(1)<<(l.Elem&63); *w&bit == 0 {
		*w |= bit
		if s.touched == nil {
			s.touched = make([]Loc, 0, 8)
		}
		s.touched = append(s.touched, l)
	}
}

// reset empties the set, keeping the words for reuse.
func (s *locSet) reset() {
	for _, l := range s.touched {
		*s.word(l) = 0
	}
	s.touched = s.touched[:0]
}

// spinWindow is the number of tracked instructions after which a thread's
// spin data is reset. Windowing scopes the read set to the loop the
// thread is currently stuck in: shared reads made before entering the
// loop (e.g. the racy read that selected this path) age out and do not
// contaminate the ad-hoc-sync test.
const spinWindow = 8192

func (m *Machine) spinFor(tid int) *spinInfo {
	if tid >= len(m.spin) {
		m.spin = append(m.spin, make([]*spinInfo, max(tid+1, len(m.St.Threads))-len(m.spin))...)
	}
	si := m.spin[tid]
	if si == nil {
		si = &spinInfo{}
		m.spin[tid] = si
	}
	return si
}

func (m *Machine) trackSpinPC(tid int, in bytecode.Instr, pc bytecode.PCRef) {
	si := m.spinFor(tid)
	si.ticks++
	if si.ticks%spinWindow == 0 {
		// Double-buffer rollover: the full window just recorded becomes
		// the previous one, and the old previous buffers are cleared in
		// place to receive the next window.
		si.prevVisits, si.visits = si.visits, si.prevVisits
		si.prevReads, si.reads = si.reads, si.prevReads
		si.visits.reset()
		si.reads.reset()
	}
	if in.Op != bytecode.JMP && in.Op != bytecode.JZ {
		return
	}
	si.visits.add(m.St.Prog, pc.Fn, pc.PC, 1)
	if r := m.probe.rec; r != nil {
		*r = append(*r, spinEvent{tick: si.ticks, tid: int32(tid), fn: int32(pc.Fn), pc: int32(pc.PC)})
	}
}

func (m *Machine) trackSpinRead(tid int, loc Loc) {
	si := m.spinFor(tid)
	si.reads.add(loc)
	if r := m.probe.rec; r != nil {
		*r = append(*r, spinEvent{tick: si.ticks, tid: int32(tid), fn: -1, loc: loc})
	}
}

// spinEvent is one event of the period the probe records after a skip
// (period.go): a jump visit at fn/pc, or a shared read of loc when fn is
// negative, stamped with its thread's tick.
type spinEvent struct {
	tick   int64
	tid    int32
	fn, pc int32
	loc    Loc
}

// windowStart is the first tick of the spin window holding tick t.
// Window j holds ticks [jW, (j+1)W), except that ticks count from 1, so
// window 0 starts at tick 1.
func windowStart(t int64) int64 { return max(1, t/spinWindow*spinWindow) }

// firstWindowTick is the first tick of the oldest window DiagnoseSpin
// can read once the thread has ticked t times: the previous window's,
// or the current one's while none has rolled over.
func firstWindowTick(t int64) int64 {
	a := windowStart(t)
	if a > 1 {
		a = windowStart(a - 1)
	}
	return a
}

// rebuild refills both windows of thread tid, whose spin events repeat
// every d ticks, from ev: the record of its last d ticks (si.ticks-d,
// si.ticks], in tick order, possibly interleaved with other threads'
// events. Every tick of both windows must lie in the periodic stretch
// (the caller's guard), so each maps to the recorded tick of the same
// phase.
func (si *spinInfo) rebuild(p *bytecode.Program, ev []spinEvent, tid int32, d int64) {
	base := si.ticks - d
	a := windowStart(si.ticks)
	si.visits.reset()
	si.reads.reset()
	fillWindow(&si.visits, &si.reads, p, ev, tid, base, d, a, si.ticks)
	si.prevVisits.reset()
	si.prevReads.reset()
	if a > 1 {
		fillWindow(&si.prevVisits, &si.prevReads, p, ev, tid, base, d, windowStart(a-1), a-1)
	}
}

// fillWindow adds the window of ticks [a, b] to empty buffers c and s,
// given tid's events ev over the ticks (base, base+d] of period d. A
// window of n ticks holds q = n/d whole periods and the first n%d ticks
// of one more, so each jump counts q visits, plus one if its offset from
// the window's start phase falls inside that partial period, and the
// read set is the union over min(n, d) ticks from that phase. Walking
// the record from the start phase, wrapping once, also adds pcs and
// locations in the order the window first touched them.
func fillWindow(c *pcCounts, s *locSet, p *bytecode.Program, ev []spinEvent, tid int32, base, d, a, b int64) {
	n := b - a + 1
	q, rem, limit := n/d, n%d, min(n, d)
	// start is the recorded tick in phase with a.
	start := base + 1 + ((a-base-1)%d+d)%d
	for _, wrapped := range [2]bool{false, true} {
		for _, e := range ev {
			if e.tid != tid || (e.tick < start) != wrapped {
				continue
			}
			off := e.tick - start
			if wrapped {
				off += d
			}
			if off >= limit {
				break
			}
			if e.fn < 0 {
				s.add(e.loc)
				continue
			}
			k := q
			if off < rem {
				k++
			}
			c.add(p, int(e.fn), int(e.pc), int32(k))
		}
	}
}

// spinLoopThreshold is the visit count above which a jump is considered
// part of a non-terminating loop during a budgeted run.
const spinLoopThreshold = 32

// SpinDiagnosis is the result of DiagnoseSpin.
type SpinDiagnosis struct {
	// Looping: the thread repeatedly executed the same jump.
	Looping bool
	// SharedReads: shared locations read while looping.
	SharedReads []Loc
	// WritableByOther: some other thread that has not exited may still
	// write one of SharedReads (per the static write-set analysis of its
	// live frames) — the loop is ad-hoc synchronization, not an infinite
	// loop. Suspended and blocked threads count: the suspended first
	// racing thread is exactly the writer an enforcement timeout spins
	// on (CanBeWrittenByOther).
	WritableByOther bool
}

// DiagnoseSpin inspects the spin-tracking data for tid. Call it after Run
// returned StopBudget with SpinTrack enabled.
func (m *Machine) DiagnoseSpin(tid int) SpinDiagnosis {
	var d SpinDiagnosis
	if tid < 0 || tid >= len(m.spin) || m.spin[tid] == nil {
		return d
	}
	si := m.spin[tid]
	visits, reads := &si.visits, &si.reads
	if si.ticks%spinWindow < spinWindow/4 && si.ticks >= spinWindow {
		// Fresh window: diagnose on the previous one instead.
		visits, reads = &si.prevVisits, &si.prevReads
	}
	d.Looping = visits.anyAtLeast(spinLoopThreshold)
	if !d.Looping {
		return d
	}
	for _, loc := range reads.touched {
		d.SharedReads = append(d.SharedReads, loc)
		if m.St.CanBeWrittenByOther(loc, tid) {
			d.WritableByOther = true
		}
	}
	sort.Slice(d.SharedReads, func(i, j int) bool {
		a, b := d.SharedReads[i], d.SharedReads[j]
		if a.Space != b.Space {
			return a.Space < b.Space
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Elem < b.Elem
	})
	return d
}

// CanBeWrittenByOther reports whether any live thread other than tid could
// still write loc, per the program's static transitive write sets of its
// frames. Live means not exited: suspended and blocked threads count.
// Heap locations are conservatively considered writable (any thread
// holding the reference may store through it).
func (st *State) CanBeWrittenByOther(loc Loc, tid int) bool {
	if loc.Space == SpaceHeap {
		return true
	}
	g := int(loc.Obj)
	for _, t := range st.Threads {
		if t.ID == tid || t.Status == ThExited {
			continue
		}
		for _, f := range t.Frames {
			ws := st.Prog.WriteSet(f.Fn)
			if _, ok := ws[g]; ok {
				return true
			}
		}
	}
	return false
}
