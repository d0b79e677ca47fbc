package vm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

// ThreadStatus is a thread's scheduling state.
type ThreadStatus uint8

// Thread statuses.
const (
	ThRunnable ThreadStatus = iota
	ThBlockedMutex
	ThBlockedCond
	ThBlockedJoin
	ThBlockedBarrier
	ThExited
)

var threadStatusNames = map[ThreadStatus]string{
	ThRunnable: "runnable", ThBlockedMutex: "blocked-mutex",
	ThBlockedCond: "blocked-cond", ThBlockedJoin: "blocked-join",
	ThBlockedBarrier: "blocked-barrier", ThExited: "exited",
}

// String names the status.
func (s ThreadStatus) String() string {
	if n, ok := threadStatusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Frame is one function activation. A Frame reachable from two states
// (after a Clone) is immutable; the machine privatizes it through the
// state's write barrier (wframe) before mutating, so Locals and Stack
// backing arrays are only ever written by the state that owns them.
type Frame struct {
	Fn     int
	PC     int
	Locals []expr.Expr
	Stack  []expr.Expr

	stamp uint64 // epoch that owns this frame (see State.epoch)
}

// Thread is one PIL thread. Like Frame, a Thread shared between states
// is immutable; writers go through the state's write barrier (wthread).
type Thread struct {
	ID     int
	Status ThreadStatus
	Frames []*Frame

	// Blocking detail (valid per Status).
	WaitMutex   int // mutex being acquired (LOCK, or WAIT reacquire phase)
	WaitCond    int
	WaitJoin    int
	WaitBarrier int
	WaitPhase   int // for WAIT: 0 = on condvar, 1 = reacquiring the mutex

	// Instrs counts completed instructions; it is the per-thread
	// "absolute count of instructions executed" the paper's schedule
	// traces use to identify racing accesses precisely (§3.1).
	Instrs int64

	stamp uint64 // epoch that owns this thread
}

// Top returns the active frame, or nil when the thread has exited.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// PCRef returns the thread's current static location.
func (t *Thread) PCRef(p *bytecode.Program) bytecode.PCRef {
	f := t.Top()
	if f == nil {
		return bytecode.PCRef{Fn: -1, PC: -1}
	}
	line := int32(0)
	if f.PC < len(p.Funcs[f.Fn].Code) {
		line = p.Funcs[f.Fn].Code[f.PC].Line
	}
	return bytecode.PCRef{Fn: f.Fn, PC: f.PC, Line: line}
}

// mutexState is one mutex. Owner is -1 when free.
type mutexState struct {
	Owner int
}

// condState is one condition variable: the FIFO of blocked thread ids.
type condState struct {
	Waiters []int
}

// barrierState tracks arrived thread ids.
type barrierState struct {
	Arrived []int
}

// HeapBlock is one allocation. Blocks live in the state's copy-on-write
// heap slice; a block shared between states is immutable, and the
// machine's write barrier (wblock) copies it on first write per epoch.
type HeapBlock struct {
	Cells []expr.Expr
	Freed bool

	stamp uint64 // epoch that owns this block
}

// OutPart is one piece of an output record: a literal or a value. Exactly
// one of Lit/E is meaningful (E == nil for literals).
type OutPart struct {
	Lit string
	E   expr.Expr
}

// Output is one program output record ("the arguments passed to output
// system calls", §3.3.1). In symbolic executions the value parts may be
// symbolic formulae.
type Output struct {
	TID   int
	PC    bytecode.PCRef
	Parts []OutPart
}

// String renders the output record concretely where possible.
func (o Output) String() string {
	var b strings.Builder
	for _, p := range o.Parts {
		if p.E != nil {
			b.WriteString(p.E.String())
		} else {
			b.WriteString(p.Lit)
		}
	}
	return b.String()
}

// Inputs models the log of non-deterministic program inputs (the system
// call log of the paper's traces). The first NSymbolic reads return fresh
// symbolic variables whose concolic hint is the recorded concrete value.
type Inputs struct {
	Values    []int64
	Pos       int
	NSymbolic int
}

// SyncKind enumerates synchronization events delivered to observers.
type SyncKind uint8

// Synchronization event kinds.
const (
	EvSpawn SyncKind = iota
	EvExit
	EvJoin
	EvAcquire
	EvRelease
	EvSignal  // includes broadcast; Others lists woken threads
	EvBarrier // Others lists all released participants
)

// SyncEvent is delivered to observers for happens-before tracking.
type SyncEvent struct {
	Kind   SyncKind
	TID    int
	Obj    int // mutex / cond / barrier id, or child tid for EvSpawn
	Others []int
}

// Observer receives memory and synchronization events. Observers are part
// of the state and are cloned with it (the race detector's vector clocks
// must fork along with execution states).
type Observer interface {
	// OnAccess is called for every shared memory access, before its
	// effect. tInstr is the thread's completed-instruction count, which
	// identifies this access for replay.
	OnAccess(st *State, tid int, loc Loc, write bool, pc bytecode.PCRef, tInstr int64)
	// OnSync is called after each synchronization event.
	OnSync(st *State, ev SyncEvent)
	// CloneObs returns a logically independent copy. Checkpoint deposits
	// clone states constantly, so an observer carried on checkpoint
	// states should make this O(1): share its tables and copy them only
	// when an event changes them (core's access counter is the shape).
	// The race detector is detached before every deposit and simply
	// deep-copies.
	CloneObs() Observer
}

// globalEpoch mints state epochs. Epoch 0 is reserved for states that
// were built directly (NewState, struct literals in tests)
// and have never been cloned: their layer stamps are all zero, so they
// own everything they reference without any initialization.
var globalEpoch uint64

// State is the complete machine state: memory, threads, scheduler
// position, inputs/outputs, path condition, and observers. It supports
// cloning, which implements checkpointing (Algorithm 1) and state
// forking (Algorithm 2).
//
// # Persistent copy-on-write representation
//
// Clone is O(1): it copies the struct fields (sharing every mutable
// layer with the source) and gives both states fresh epochs. Each
// mutable layer carries an ownership stamp — either a per-layer field in
// the State (gStamp for globals, syncStamp for mutexes/conds/barriers,
// thStamp for the thread list, heapStamp for the heap's block list,
// suspStamp, hintStamp, argStamp) or a per-object stamp (Thread, Frame,
// HeapBlock). A layer is owned, and may be written in place, exactly when
// its stamp equals the state's epoch; otherwise the writer first
// privatizes it (write barrier: copy the layer, stamp it with the
// current epoch) and every other state sharing the old copy is
// untouched. Since epochs are globally unique and never reused, a stale
// stamp can never be mistaken for ownership.
//
// The heap is a flat slice of blocks indexed by ref-1 — heap refs are
// dense, FREE marks rather than deletes — so iteration yields blocks in
// ref order with no sorting.
//
// Append-only slices (Outputs, PathCond) share backing arrays with the
// clone's source, cap-trimmed on the clone side so an append by either
// party reallocates instead of overwriting the shared prefix.
// Concretize, the one operation that rewrites shared-looking data
// wholesale, privatizes each layer before writing.
type State struct {
	Prog *bytecode.Program // immutable, shared

	Globals  [][]expr.Expr // per global: cells; privatized via wglobals
	heap     []*HeapBlock  // indexed by ref-1; privatized via wheap
	NextRef  int64
	Mutexes  []mutexState
	Conds    []condState
	Barriers []barrierState

	Threads []*Thread
	Cur     int

	Outputs []Output
	In      Inputs
	Args    []int64
	SymArgs []bool // per-arg: reads produce symbolic values

	// ArgReads counts completed ARG instructions. Together with In.Pos it
	// tells a checkpoint consumer whether the execution so far touched any
	// source that symbolic re-execution would have made symbolic: a state
	// with In.Pos == 0 and ArgReads == 0 is bit-identical to what the same
	// replay would produce with symbolic inputs/args enabled.
	ArgReads int

	// PathCond is the conjunction of branch constraints accumulated by
	// symbolic execution; Hints maps every created symbol to its concolic
	// seed value, so the state always carries a satisfying witness.
	PathCond []expr.Expr
	Hints    expr.Assignment

	// Suspended threads are invisible to the scheduler; the classifier
	// suspends the first racing thread to enforce the alternate ordering.
	// Indexed by thread id and grown on demand (a short id is simply not
	// suspended) — the interpreter loop consults it once per instruction,
	// which is why it is a slice and not a map. Use IsSuspended / Suspend
	// / Resume rather than indexing directly.
	Suspended []bool

	Steps   int64 // total completed instructions
	Halted  bool  // main returned: the process exits
	Failure *RuntimeError

	Observers []Observer

	argSyms map[int]*expr.Sym // memoized symbols for symbolic args

	// epoch identifies this state's current ownership generation. It is
	// only meaningful together with sharedFlag: Clone marks the source
	// shared (atomically, so concurrent Clones of one checkpoint are
	// safe) instead of touching epoch, and own() re-epochs lazily on the
	// next write. Everything below is bookkeeping the wire codec ignores.
	epoch      uint64
	sharedFlag uint32 // set by Clone on the source; cleared by own()

	// Per-layer ownership stamps for layers without objects of their own.
	gStamp    uint64 // Globals (outer slice + every cell slab)
	syncStamp uint64 // Mutexes, Conds, Barriers
	thStamp   uint64 // Threads outer slice
	heapStamp uint64 // heap block list
	suspStamp uint64 // Suspended
	hintStamp uint64 // Hints
	argStamp  uint64 // Args, SymArgs, argSyms

	// meter, when non-nil, receives per-Clone cost tallies
	// (Stats.CloneAllocs / Stats.CloneBytes). Clones inherit it.
	meter *Counters
}

// NewState builds the initial state for a program with the given concrete
// arguments and input log.
func NewState(p *bytecode.Program, args []int64, inputs []int64) *State {
	st := &State{
		Prog:    p,
		NextRef: 1,
		Args:    append([]int64(nil), args...),
		SymArgs: make([]bool, len(args)),
		In:      Inputs{Values: append([]int64(nil), inputs...)},
		Hints:   expr.Assignment{},
		Cur:     0,
	}
	st.Globals = make([][]expr.Expr, len(p.Globals))
	for i, g := range p.Globals {
		cells := make([]expr.Expr, g.Size)
		for j := range cells {
			cells[j] = expr.NewConst(0)
		}
		if g.Size == 1 {
			cells[0] = expr.NewConst(g.Init)
		}
		st.Globals[i] = cells
	}
	st.Mutexes = make([]mutexState, len(p.Mutexes))
	for i := range st.Mutexes {
		st.Mutexes[i].Owner = -1
	}
	st.Conds = make([]condState, len(p.Conds))
	st.Barriers = make([]barrierState, len(p.Barriers))

	mainFn := &p.Funcs[p.MainFunc]
	fr := &Frame{Fn: p.MainFunc, Locals: make([]expr.Expr, mainFn.NLocals)}
	for i := range fr.Locals {
		fr.Locals[i] = expr.NewConst(0)
	}
	st.Threads = []*Thread{{
		ID: 0, Status: ThRunnable, Frames: []*Frame{fr},
		WaitMutex: -1, WaitCond: -1, WaitJoin: -1, WaitBarrier: -1,
	}}
	return st
}

// SetCounters directs this state's per-Clone cost meter at c; clones
// inherit the meter. The classification engine points every state it
// runs at its per-run Counters.
func (st *State) SetCounters(c *Counters) { st.meter = c }

// stateBytes approximates what one Clone allocates (the State struct,
// plus the Observers slice when present); observer CloneObs costs are
// counted by the observers themselves being O(1) wrappers.
const stateBytes = int64(unsafe.Sizeof(State{}))

// Clone snapshots the state in O(1): the child shares every mutable
// layer with the source, and both sides' write barriers copy a layer on
// its first write per epoch (see the State doc comment). The source is
// marked shared with one atomic store, so Clone is safe to call
// concurrently on one state from several goroutines — which the
// parallel alternate-schedule workers and the checkpoint stores'
// concurrent Resumes rely on.
func (st *State) Clone() *State {
	ns := st.fork()
	allocs, bytes := int64(1), stateBytes
	if n := len(ns.Observers); n > 0 {
		allocs += int64(1 + n)
		bytes += int64(n) * 16
	}
	if m := st.meter; m != nil {
		m.CloneAllocs.Add(allocs)
		m.CloneBytes.Add(bytes)
	}
	return ns
}

// fork is Clone without the cost meter: the period probe's
// configuration snapshots (see period.go) exist only to be compared
// against, are not checkpoints, and must not show up in
// Stats.CloneAllocs.
//
// The child is built with a field literal rather than a struct copy so
// that sharedFlag (the one word a concurrent Clone writes) is never
// read here.
func (st *State) fork() *State {
	ns := &State{
		Prog:     st.Prog,
		Globals:  st.Globals,
		heap:     st.heap,
		NextRef:  st.NextRef,
		Mutexes:  st.Mutexes,
		Conds:    st.Conds,
		Barriers: st.Barriers,
		Threads:  st.Threads,
		Cur:      st.Cur,
		// Append-only slices: share the backing array, cap-trimmed so
		// that an append by the child reallocates instead of overwriting
		// the source's spare capacity (the source keeps its capacity; the
		// child never reads past its own length).
		Outputs:   st.Outputs[:len(st.Outputs):len(st.Outputs)],
		PathCond:  st.PathCond[:len(st.PathCond):len(st.PathCond)],
		In:        st.In,
		Args:      st.Args,
		SymArgs:   st.SymArgs,
		ArgReads:  st.ArgReads,
		Hints:     st.Hints,
		Suspended: st.Suspended,
		Steps:     st.Steps,
		Halted:    st.Halted,
		Failure:   st.Failure,
		argSyms:   st.argSyms,
		meter:     st.meter,
	}
	// The Observers slice itself must be private (dropAccessCounter and
	// friends splice it in place), and each observer forks its identity —
	// cheaply for the observers checkpoints carry, which copy-on-write
	// their tables too.
	if len(st.Observers) > 0 {
		obs := make([]Observer, len(st.Observers))
		for i, o := range st.Observers {
			obs[i] = o.CloneObs()
		}
		ns.Observers = obs
	}
	// Invalidate the source's ownership (lazily: its next write re-epochs
	// via own) and give the child a fresh epoch. Stamps are left zero in
	// the child; a fresh epoch is never zero... except for the reserved
	// root generation, which by construction has nothing shared to
	// protect.
	atomic.StoreUint32(&st.sharedFlag, 1)
	ns.epoch = atomic.AddUint64(&globalEpoch, 1)
	return ns
}

// own makes sure the state's epoch is private before any stamp
// comparison: if the state was cloned since its last write, every layer
// it thought it owned is now shared, so it takes a fresh epoch (all
// stamps go stale at once) and clears the flag. Writers call it through
// the w* barriers; it is one atomic load on the fast path.
func (st *State) own() {
	if atomic.LoadUint32(&st.sharedFlag) != 0 {
		atomic.StoreUint32(&st.sharedFlag, 0)
		st.epoch = atomic.AddUint64(&globalEpoch, 1)
	}
}

// wglobals privatizes the globals layer: the outer slice and one
// combined cell slab for every global, so after the first global write
// of an epoch all further global writes are in place.
func (st *State) wglobals() {
	st.own()
	if st.gStamp == st.epoch {
		return
	}
	nCells := 0
	for _, cells := range st.Globals {
		nCells += len(cells)
	}
	slab := make([]expr.Expr, nCells)
	ng := make([][]expr.Expr, len(st.Globals))
	xi := 0
	for i, cells := range st.Globals {
		dst := slab[xi : xi+len(cells) : xi+len(cells)]
		copy(dst, cells)
		ng[i] = dst
		xi += len(cells)
	}
	st.Globals = ng
	st.gStamp = st.epoch
}

// wsync privatizes the synchronization layer (mutexes, condvars,
// barriers). Outer slices are copied; the Waiters/Arrived backing
// arrays stay shared read-only with their headers cap-trimmed, so an
// append by any party reallocates (no element of a waiter list is ever
// written in place — lists only append, re-slice, or reset).
func (st *State) wsync() {
	st.own()
	if st.syncStamp == st.epoch {
		return
	}
	st.Mutexes = append([]mutexState(nil), st.Mutexes...)
	nc := make([]condState, len(st.Conds))
	for i := range st.Conds {
		w := st.Conds[i].Waiters
		nc[i].Waiters = w[:len(w):len(w)]
	}
	st.Conds = nc
	nb := make([]barrierState, len(st.Barriers))
	for i := range st.Barriers {
		a := st.Barriers[i].Arrived
		nb[i].Arrived = a[:len(a):len(a)]
	}
	st.Barriers = nb
	st.syncStamp = st.epoch
}

// wthreads privatizes the outer thread list (cap-trimmed so SPAWN's
// append reallocates rather than growing into a shared neighbor).
func (st *State) wthreads() {
	st.own()
	if st.thStamp == st.epoch {
		return
	}
	nt := make([]*Thread, len(st.Threads))
	copy(nt, st.Threads)
	st.Threads = nt
	st.thStamp = st.epoch
}

// wthread returns a writable *Thread for tid, privatizing the outer
// list and the thread object as needed. The thread's Frames pointer
// slice is copied cap-trimmed; the frames themselves stay shared until
// wframe touches them.
func (st *State) wthread(tid int) *Thread {
	st.wthreads()
	t := st.Threads[tid]
	if t.stamp == st.epoch {
		return t
	}
	nt := &Thread{}
	*nt = *t
	nt.stamp = st.epoch
	nf := make([]*Frame, len(t.Frames))
	copy(nf, t.Frames)
	nt.Frames = nf
	st.Threads[tid] = nt
	return nt
}

// wframe returns a writable frame at index i of an already-privatized
// thread, copying the frame and its Locals/Stack backing on first touch
// per epoch. Once owned, element writes, pops, and pushes all operate on
// private arrays (a push after privatization reallocates once — the
// copy is exact-capacity — then grows privately).
func (st *State) wframe(t *Thread, i int) *Frame {
	f := t.Frames[i]
	if f.stamp == st.epoch {
		return f
	}
	nf := &Frame{Fn: f.Fn, PC: f.PC, stamp: st.epoch}
	nf.Locals = make([]expr.Expr, len(f.Locals))
	copy(nf.Locals, f.Locals)
	nf.Stack = make([]expr.Expr, len(f.Stack))
	copy(nf.Stack, f.Stack)
	t.Frames[i] = nf
	return nf
}

// wtop is wframe for the thread's active frame.
func (st *State) wtop(t *Thread) *Frame {
	return st.wframe(t, len(t.Frames)-1)
}

// newFrame allocates a frame owned by the current epoch.
func (st *State) newFrame(fn int, locals []expr.Expr) *Frame {
	return &Frame{Fn: fn, Locals: locals, stamp: st.epoch}
}

// wsusp privatizes the suspension mask.
func (st *State) wsusp() {
	st.own()
	if st.suspStamp == st.epoch {
		return
	}
	st.Suspended = append([]bool(nil), st.Suspended...)
	st.suspStamp = st.epoch
}

// whints privatizes the concolic hint assignment.
func (st *State) whints() {
	st.own()
	if st.hintStamp == st.epoch {
		return
	}
	nh := make(expr.Assignment, len(st.Hints)+1)
	for k, v := range st.Hints {
		nh[k] = v
	}
	st.Hints = nh
	st.hintStamp = st.epoch
}

// wargs privatizes the argument layer: Args, SymArgs, and the argSyms
// memo, which are written together (Concretize, MarkSymArg, ARG).
func (st *State) wargs() {
	st.own()
	if st.argStamp == st.epoch {
		return
	}
	st.Args = append([]int64(nil), st.Args...)
	st.SymArgs = append([]bool(nil), st.SymArgs...)
	if len(st.argSyms) > 0 {
		na := make(map[int]*expr.Sym, len(st.argSyms))
		for k, v := range st.argSyms {
			na[k] = v
		}
		st.argSyms = na
	} else {
		st.argSyms = nil
	}
	st.argStamp = st.epoch
}

// HeapLen returns the number of heap blocks ever allocated (freed
// blocks included; refs are dense and never reused).
func (st *State) HeapLen() int { return len(st.heap) }

// heapBlock returns the block for ref, or nil for an invalid ref.
func (st *State) heapBlock(ref int64) *HeapBlock {
	if ref < 1 || ref > int64(len(st.heap)) {
		return nil
	}
	return st.heap[ref-1]
}

// wheap privatizes the heap's block list; the blocks themselves stay
// shared until wblock touches them.
func (st *State) wheap() {
	st.own()
	if st.heapStamp == st.epoch {
		return
	}
	st.heap = append([]*HeapBlock(nil), st.heap...)
	st.heapStamp = st.epoch
}

// allocBlock appends a fresh heap block and returns its ref. The caller
// must have advanced NextRef; ref == NextRef-1 == HeapLen() holds by
// construction.
func (st *State) allocBlock(cells []expr.Expr) int64 {
	st.wheap()
	st.heap = append(st.heap, &HeapBlock{Cells: cells, stamp: st.epoch})
	return int64(len(st.heap))
}

// wblock returns a writable block for ref (which must be valid),
// copying the block and its cells on first write per epoch.
func (st *State) wblock(ref int64, blk *HeapBlock) *HeapBlock {
	st.wheap()
	if blk.stamp == st.epoch {
		return blk
	}
	nb := &HeapBlock{Freed: blk.Freed, stamp: st.epoch}
	nb.Cells = make([]expr.Expr, len(blk.Cells))
	copy(nb.Cells, blk.Cells)
	st.heap[ref-1] = nb
	return nb
}

// IsSuspended reports whether the thread is hidden from the scheduler.
func (st *State) IsSuspended(tid int) bool {
	return tid >= 0 && tid < len(st.Suspended) && st.Suspended[tid]
}

// AppendRunnableTIDs appends the schedulable thread ids (in id order,
// excluding suspended threads) to buf and returns it. The interpreter
// loop calls this with a reused scratch buffer so scheduling points do
// not allocate.
func (st *State) AppendRunnableTIDs(buf []int) []int {
	for _, t := range st.Threads {
		if t.Status == ThRunnable && !st.IsSuspended(t.ID) {
			buf = append(buf, t.ID)
		}
	}
	return buf
}

// LiveCount returns the number of threads that have not exited.
func (st *State) LiveCount() int {
	n := 0
	for _, t := range st.Threads {
		if t.Status != ThExited {
			n++
		}
	}
	return n
}

// Finished reports whether the program has terminated.
func (st *State) Finished() bool {
	return st.Halted || st.LiveCount() == 0
}

// Suspend hides a thread from the scheduler (classifier orchestration).
func (st *State) Suspend(tid int) {
	if tid < 0 {
		return
	}
	st.wsusp()
	for len(st.Suspended) <= tid {
		st.Suspended = append(st.Suspended, false)
	}
	st.Suspended[tid] = true
}

// Resume reverses Suspend.
func (st *State) Resume(tid int) {
	if tid >= 0 && tid < len(st.Suspended) {
		st.wsusp()
		st.Suspended[tid] = false
	}
}

// NewSym mints a fresh symbolic variable with a concolic hint and records
// the hint.
func (st *State) NewSym(name string, hint int64) *expr.Sym {
	s := expr.NewSym(name)
	st.whints()
	st.Hints[name] = hint
	return s
}

// SetHint records (or overrides) the concolic seed value for a symbol.
// Callers outside the vm use it to steer a cloned sibling down the other
// side of a branch; the barrier keeps the clone's source untouched.
func (st *State) SetHint(name string, v int64) {
	st.whints()
	st.Hints[name] = v
}

// MarkSymArg flags argument i so its future ARG reads mint symbols
// instead of returning the recorded concrete value.
func (st *State) MarkSymArg(i int) {
	if i < 0 || i >= len(st.SymArgs) {
		return
	}
	st.wargs()
	st.SymArgs[i] = true
}

// AddConstraint appends a path constraint.
func (st *State) AddConstraint(c expr.Expr) {
	if v, ok := expr.ConstVal(c); ok && v != 0 {
		return // trivially true
	}
	st.PathCond = append(st.PathCond, c)
}

// HintEval evaluates e under the state's concolic hints; every symbol the
// state created has a hint, so this cannot fail for well-formed states.
func (st *State) HintEval(e expr.Expr) (int64, error) {
	return expr.Eval(e, st.Hints)
}

// Concretize substitutes model (overlaid on the state's hints) into every
// expression in the state, producing a fully concrete state: memory,
// stacks, outputs, and pending inputs. The path condition is cleared.
// This is how alternate executions become "fully concrete" (§3.3.1).
// Every layer it rewrites goes through the write barriers first, so
// sibling clones being concretized concurrently on other workers never
// see each other's substitutions.
func (st *State) Concretize(model expr.Assignment) {
	env := make(expr.Assignment, len(st.Hints)+len(model))
	for k, v := range st.Hints {
		env[k] = v
	}
	for k, v := range model {
		env[k] = v
	}
	sub := func(e expr.Expr) expr.Expr { return expr.Substitute(e, env) }
	st.wglobals()
	for i, cells := range st.Globals {
		for j, c := range cells {
			st.Globals[i][j] = sub(c)
		}
	}
	for i, blk := range st.heap {
		wb := st.wblock(int64(i)+1, blk)
		for j, c := range wb.Cells {
			wb.Cells[j] = sub(c)
		}
	}
	for i := range st.Threads {
		t := st.wthread(i)
		for j := range t.Frames {
			f := st.wframe(t, j)
			for i, l := range f.Locals {
				f.Locals[i] = sub(l)
			}
			for i, s := range f.Stack {
				f.Stack[i] = sub(s)
			}
		}
	}
	// Rebuild the output records instead of substituting in place: the
	// Outputs slice and the Parts arrays inside it may be shared with
	// the state this one was cloned from (and with sibling clones being
	// concretized concurrently on other workers), so they must be
	// treated as immutable.
	if n := len(st.Outputs); n > 0 {
		outs := make([]Output, n)
		copy(outs, st.Outputs)
		for oi := range outs {
			rebuilt := false
			for pi, p := range outs[oi].Parts {
				if p.E == nil {
					continue
				}
				if !rebuilt {
					outs[oi].Parts = append([]OutPart(nil), outs[oi].Parts...)
					rebuilt = true
				}
				outs[oi].Parts[pi].E = sub(p.E)
			}
		}
		st.Outputs = outs
	}
	// Future arg reads become concrete, consistent with the model.
	st.wargs()
	for i := range st.SymArgs {
		if st.SymArgs[i] {
			if v, ok := env[argSymName(i)]; ok {
				st.Args[i] = v
			}
			st.SymArgs[i] = false
		}
	}
	st.argSyms = nil
	// Future input reads become concrete, consistent with the model. The
	// values log may be shared with the clone's source; privatize before
	// the first write or growth.
	vals := make([]int64, len(st.In.Values))
	copy(vals, st.In.Values)
	st.In.Values = vals
	for p := 0; p < st.In.NSymbolic; p++ {
		if v, ok := env[inputSymName(p)]; ok {
			for len(st.In.Values) <= p {
				st.In.Values = append(st.In.Values, 0)
			}
			st.In.Values[p] = v
		}
	}
	st.In.NSymbolic = 0
	st.PathCond = nil
}

func argSymName(i int) string   { return fmt.Sprintf("arg%d", i) }
func inputSymName(i int) string { return fmt.Sprintf("in%d", i) }

// MemoryFingerprint summarizes globals, heap and thread-local memory as a
// canonical string, one rendered cell at a time.
func (st *State) MemoryFingerprint() string {
	var b strings.Builder
	for i, cells := range st.Globals {
		fmt.Fprintf(&b, "g%d:", i)
		for _, c := range cells {
			b.WriteString(c.String())
			b.WriteByte(',')
		}
	}
	for i, blk := range st.heap {
		fmt.Fprintf(&b, "h%d(f=%v):", i+1, blk.Freed)
		for _, c := range blk.Cells {
			b.WriteString(c.String())
			b.WriteByte(',')
		}
	}
	for _, t := range st.Threads {
		fmt.Fprintf(&b, "t%d(%s):", t.ID, t.Status)
		for _, f := range t.Frames {
			for _, l := range f.Locals {
				b.WriteString(l.String())
				b.WriteByte(',')
			}
		}
	}
	return b.String()
}

// RenderOutputs renders all outputs, one line per record; values that are
// still symbolic render as formulae.
func (st *State) RenderOutputs() string {
	var b strings.Builder
	for _, o := range st.Outputs {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func (st *State) fail(kind ErrKind, tid int, pc bytecode.PCRef, msg string) *RuntimeError {
	e := &RuntimeError{Kind: kind, TID: tid, PC: pc, Msg: msg}
	st.Failure = e
	return e
}

// notifyAccess delivers a memory access to all observers.
func (st *State) notifyAccess(tid int, loc Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	for _, o := range st.Observers {
		o.OnAccess(st, tid, loc, write, pc, tInstr)
	}
}

// notifySync delivers a sync event to all observers.
func (st *State) notifySync(ev SyncEvent) {
	for _, o := range st.Observers {
		o.OnSync(st, ev)
	}
}
