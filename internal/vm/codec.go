package vm

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

// StateWire is the serializable form of a State: every expression cell
// flattened into one shared node table (indices reference it), maps
// rendered as sorted slices so the wire form is canonical, and observers
// reduced to opaque (kind, payload) pairs via the caller's codec — the
// VM does not know the concrete observer types analysis layers attach.
//
// The program is deliberately absent: states within one snapshot share
// it, so the container serializes it once and DecodeState re-attaches it.
type StateWire struct {
	Nodes []expr.NodeWire

	Globals     [][]int32
	Heap        []HeapBlockWire
	NextRef     int64
	MutexOwners []int
	Conds       [][]int
	Barriers    [][]int

	Threads []ThreadWire
	Cur     int

	Outputs     []OutputWire
	InValues    []int64
	InPos       int
	InNSymbolic int
	Args        []int64
	SymArgs     []bool
	ArgReads    int

	PathCond  []int32
	HintNames []string
	HintVals  []int64

	Suspended []bool
	Steps     int64
	Halted    bool
	Failure   *RuntimeErrorWire

	Observers []ObsWire
}

// HeapBlockWire is one heap allocation, keyed by its ref.
type HeapBlockWire struct {
	Ref   int64
	Cells []int32
	Freed bool
}

// ThreadWire is one thread.
type ThreadWire struct {
	ID     int
	Status uint8
	Frames []FrameWire

	WaitMutex   int
	WaitCond    int
	WaitJoin    int
	WaitBarrier int
	WaitPhase   int

	Instrs int64
}

// FrameWire is one activation frame.
type FrameWire struct {
	Fn     int
	PC     int
	Locals []int32
	Stack  []int32
}

// OutputWire is one output record; Parts with E == -1 are literals.
type OutputWire struct {
	TID   int
	PC    bytecode.PCRef
	Parts []OutPartWire
}

// OutPartWire is one output piece.
type OutPartWire struct {
	Lit string
	E   int32
}

// RuntimeErrorWire is a serialized RuntimeError.
type RuntimeErrorWire struct {
	Kind uint8
	TID  int
	PC   bytecode.PCRef
	Msg  string
}

// ObsWire is one observer in opaque serialized form.
type ObsWire struct {
	Kind string
	Data []byte
}

// ObsEncoder serializes one observer; ok is false when the observer has
// no wire form (the whole state is then unserializable and the caller
// skips it — persistence is a cache, never an obligation).
type ObsEncoder func(Observer) (kind string, data []byte, ok bool)

// ObsDecoder rebuilds an observer from its wire form.
type ObsDecoder func(kind string, data []byte) (Observer, error)

// EncodeState flattens st into its wire form. ok is false when an
// observer cannot be serialized; encObs may be nil when the state is
// known to carry no observers.
func EncodeState(st *State, encObs ObsEncoder) (w *StateWire, ok bool) {
	enc := expr.NewEncoder()
	w = &StateWire{
		NextRef:     st.NextRef,
		Cur:         st.Cur,
		InValues:    append([]int64(nil), st.In.Values...),
		InPos:       st.In.Pos,
		InNSymbolic: st.In.NSymbolic,
		Args:        append([]int64(nil), st.Args...),
		SymArgs:     append([]bool(nil), st.SymArgs...),
		ArgReads:    st.ArgReads,
		Suspended:   append([]bool(nil), st.Suspended...),
		Steps:       st.Steps,
		Halted:      st.Halted,
	}

	w.Globals = make([][]int32, len(st.Globals))
	for i, cells := range st.Globals {
		w.Globals[i] = enc.AddList(cells)
	}

	// The heap is in ref order by construction, which is exactly the
	// sorted order the canonical wire form requires.
	if n := len(st.heap); n > 0 {
		w.Heap = make([]HeapBlockWire, n)
		for i, blk := range st.heap {
			w.Heap[i] = HeapBlockWire{Ref: int64(i) + 1, Cells: enc.AddList(blk.Cells), Freed: blk.Freed}
		}
	}

	w.MutexOwners = make([]int, len(st.Mutexes))
	for i := range st.Mutexes {
		w.MutexOwners[i] = st.Mutexes[i].Owner
	}
	w.Conds = make([][]int, len(st.Conds))
	for i := range st.Conds {
		w.Conds[i] = append([]int(nil), st.Conds[i].Waiters...)
	}
	w.Barriers = make([][]int, len(st.Barriers))
	for i := range st.Barriers {
		w.Barriers[i] = append([]int(nil), st.Barriers[i].Arrived...)
	}

	w.Threads = make([]ThreadWire, len(st.Threads))
	for i, t := range st.Threads {
		tw := ThreadWire{
			ID: t.ID, Status: uint8(t.Status),
			WaitMutex: t.WaitMutex, WaitCond: t.WaitCond, WaitJoin: t.WaitJoin,
			WaitBarrier: t.WaitBarrier, WaitPhase: t.WaitPhase, Instrs: t.Instrs,
		}
		tw.Frames = make([]FrameWire, len(t.Frames))
		for j, f := range t.Frames {
			tw.Frames[j] = FrameWire{Fn: f.Fn, PC: f.PC, Locals: enc.AddList(f.Locals), Stack: enc.AddList(f.Stack)}
		}
		w.Threads[i] = tw
	}

	if len(st.Outputs) > 0 {
		w.Outputs = make([]OutputWire, len(st.Outputs))
		for i, o := range st.Outputs {
			ow := OutputWire{TID: o.TID, PC: o.PC, Parts: make([]OutPartWire, len(o.Parts))}
			for j, p := range o.Parts {
				ow.Parts[j] = OutPartWire{Lit: p.Lit, E: enc.Add(p.E)}
			}
			w.Outputs[i] = ow
		}
	}

	w.PathCond = enc.AddList(st.PathCond)

	if len(st.Hints) > 0 {
		names := make([]string, 0, len(st.Hints))
		for n := range st.Hints {
			names = append(names, n)
		}
		sort.Strings(names)
		w.HintNames = names
		w.HintVals = make([]int64, len(names))
		for i, n := range names {
			w.HintVals[i] = st.Hints[n]
		}
	}

	if st.Failure != nil {
		w.Failure = &RuntimeErrorWire{
			Kind: uint8(st.Failure.Kind), TID: st.Failure.TID,
			PC: st.Failure.PC, Msg: st.Failure.Msg,
		}
	}

	for _, o := range st.Observers {
		if encObs == nil {
			return nil, false
		}
		kind, data, obsOK := encObs(o)
		if !obsOK {
			return nil, false
		}
		w.Observers = append(w.Observers, ObsWire{Kind: kind, Data: data})
	}

	// argSyms is a droppable memo (symbols compare by name and re-mint
	// identically); the next symbolic arg read rebuilds it.
	w.Nodes = enc.Nodes()
	return w, true
}

// DecodeState rebuilds a State from its wire form against prog (the
// serialized snapshot's program, decoded once per container). decObs may
// be nil when the wire form carries no observers. A wire form that does
// not fit prog — see fitsProgram — is rejected, so a corrupt or foreign
// snapshot fails here instead of in the machine that would run it.
func DecodeState(prog *bytecode.Program, w *StateWire, decObs ObsDecoder) (*State, error) {
	if err := fitsProgram(prog, w); err != nil {
		return nil, err
	}
	dec, err := expr.NewDecoder(w.Nodes)
	if err != nil {
		return nil, err
	}
	cells := func(refs []int32) ([]expr.Expr, error) { return dec.GetList(refs) }

	st := &State{
		Prog:    prog,
		NextRef: w.NextRef,
		Cur:     w.Cur,
		In:      Inputs{Values: append([]int64(nil), w.InValues...), Pos: w.InPos, NSymbolic: w.InNSymbolic},
		Args:    append([]int64(nil), w.Args...),
		SymArgs: append([]bool(nil), w.SymArgs...),

		ArgReads:  w.ArgReads,
		Suspended: append([]bool(nil), w.Suspended...),
		Steps:     w.Steps,
		Halted:    w.Halted,
	}

	st.Globals = make([][]expr.Expr, len(w.Globals))
	for i, refs := range w.Globals {
		if st.Globals[i], err = cells(refs); err != nil {
			return nil, err
		}
	}

	// Heap refs are dense from 1 (FREE marks, never deletes), so the
	// sorted wire blocks rebuild the heap by straight appends. A sparse
	// or unsorted payload is a corrupt or foreign snapshot.
	for i, hb := range w.Heap {
		if hb.Ref != int64(i)+1 {
			return nil, fmt.Errorf("vm: heap wire block %d has ref %d, want dense ref %d", i, hb.Ref, i+1)
		}
		c, err := cells(hb.Cells)
		if err != nil {
			return nil, err
		}
		st.heap = append(st.heap, &HeapBlock{Cells: c, Freed: hb.Freed})
	}

	st.Mutexes = make([]mutexState, len(w.MutexOwners))
	for i, o := range w.MutexOwners {
		st.Mutexes[i].Owner = o
	}
	st.Conds = make([]condState, len(w.Conds))
	for i, ws := range w.Conds {
		st.Conds[i].Waiters = append([]int(nil), ws...)
	}
	st.Barriers = make([]barrierState, len(w.Barriers))
	for i, as := range w.Barriers {
		st.Barriers[i].Arrived = append([]int(nil), as...)
	}

	st.Threads = make([]*Thread, len(w.Threads))
	for i, tw := range w.Threads {
		t := &Thread{
			ID: tw.ID, Status: ThreadStatus(tw.Status),
			WaitMutex: tw.WaitMutex, WaitCond: tw.WaitCond, WaitJoin: tw.WaitJoin,
			WaitBarrier: tw.WaitBarrier, WaitPhase: tw.WaitPhase, Instrs: tw.Instrs,
		}
		t.Frames = make([]*Frame, len(tw.Frames))
		for j, fw := range tw.Frames {
			locals, err := cells(fw.Locals)
			if err != nil {
				return nil, err
			}
			stack, err := cells(fw.Stack)
			if err != nil {
				return nil, err
			}
			t.Frames[j] = &Frame{Fn: fw.Fn, PC: fw.PC, Locals: locals, Stack: stack}
		}
		st.Threads[i] = t
	}

	if len(w.Outputs) > 0 {
		st.Outputs = make([]Output, len(w.Outputs))
		for i, ow := range w.Outputs {
			o := Output{TID: ow.TID, PC: ow.PC, Parts: make([]OutPart, len(ow.Parts))}
			for j, pw := range ow.Parts {
				e, err := dec.Get(pw.E)
				if err != nil {
					return nil, err
				}
				o.Parts[j] = OutPart{Lit: pw.Lit, E: e}
			}
			st.Outputs[i] = o
		}
	}

	if st.PathCond, err = cells(w.PathCond); err != nil {
		return nil, err
	}

	if len(w.HintNames) != len(w.HintVals) {
		return nil, fmt.Errorf("vm: hint name/value length mismatch (%d vs %d)", len(w.HintNames), len(w.HintVals))
	}
	st.Hints = make(expr.Assignment, len(w.HintNames))
	for i, n := range w.HintNames {
		st.Hints[n] = w.HintVals[i]
	}

	if w.Failure != nil {
		st.Failure = &RuntimeError{
			Kind: ErrKind(w.Failure.Kind), TID: w.Failure.TID,
			PC: w.Failure.PC, Msg: w.Failure.Msg,
		}
	}

	for _, ow := range w.Observers {
		if decObs == nil {
			return nil, fmt.Errorf("vm: no observer decoder for kind %q", ow.Kind)
		}
		o, err := decObs(ow.Kind, ow.Data)
		if err != nil {
			return nil, err
		}
		st.Observers = append(st.Observers, o)
	}

	st.argSyms = map[int]*expr.Sym{}
	return st, nil
}

// fitsProgram reports why w cannot be a state of prog, or nil: the
// globals, their cells, and the mutex, cond and barrier tables must have
// the program's sizes; Cur, every mutex owner, cond waiter and barrier
// arrival must name one of the state's threads (an owner may be -1,
// free); every thread's ID must be its index, its status one of the six
// ThreadStatus values, and its WaitMutex, WaitCond and WaitBarrier must
// name an entry of the program's tables and its WaitJoin a thread (-1,
// none, is allowed for all four); and every frame must name one of the
// program's functions, park at a pc in [0, len(code)] and hold at least
// that function's locals. Operand-stack depths are not checked: the
// compiler records no per-pc stack heights to check them against.
func fitsProgram(prog *bytecode.Program, w *StateWire) error {
	if prog == nil {
		return fmt.Errorf("vm: state wire without a program")
	}
	if len(w.Globals) != len(prog.Globals) {
		return fmt.Errorf("vm: state has %d globals, program %d", len(w.Globals), len(prog.Globals))
	}
	for i, cells := range w.Globals {
		if int64(len(cells)) != prog.Globals[i].Size {
			return fmt.Errorf("vm: global %d has %d cells, program %d", i, len(cells), prog.Globals[i].Size)
		}
	}
	if len(w.MutexOwners) != len(prog.Mutexes) || len(w.Conds) != len(prog.Conds) || len(w.Barriers) != len(prog.Barriers) {
		return fmt.Errorf("vm: state has %d/%d/%d mutexes/conds/barriers, program %d/%d/%d",
			len(w.MutexOwners), len(w.Conds), len(w.Barriers), len(prog.Mutexes), len(prog.Conds), len(prog.Barriers))
	}
	n := len(w.Threads)
	if w.Cur < 0 || w.Cur >= n {
		return fmt.Errorf("vm: current thread %d of %d", w.Cur, n)
	}
	for i, o := range w.MutexOwners {
		if !noneOrBelow(o, n) {
			return fmt.Errorf("vm: mutex %d owned by thread %d of %d", i, o, n)
		}
	}
	for i, ws := range w.Conds {
		if !allBelow(ws, n) {
			return fmt.Errorf("vm: cond %d waiters %v outside %d threads", i, ws, n)
		}
	}
	for i, as := range w.Barriers {
		if !allBelow(as, n) {
			return fmt.Errorf("vm: barrier %d arrivals %v outside %d threads", i, as, n)
		}
	}
	for i, tw := range w.Threads {
		if tw.ID != i {
			return fmt.Errorf("vm: thread %d has id %d", i, tw.ID)
		}
		if ThreadStatus(tw.Status) > ThExited {
			return fmt.Errorf("vm: thread %d has status %d", i, tw.Status)
		}
		if !noneOrBelow(tw.WaitMutex, len(prog.Mutexes)) || !noneOrBelow(tw.WaitCond, len(prog.Conds)) ||
			!noneOrBelow(tw.WaitBarrier, len(prog.Barriers)) || !noneOrBelow(tw.WaitJoin, n) {
			return fmt.Errorf("vm: thread %d waits on mutex/cond/barrier/thread %d/%d/%d/%d, tables %d/%d/%d/%d",
				i, tw.WaitMutex, tw.WaitCond, tw.WaitBarrier, tw.WaitJoin, len(prog.Mutexes), len(prog.Conds), len(prog.Barriers), n)
		}
		for _, fw := range tw.Frames {
			if fw.Fn < 0 || fw.Fn >= len(prog.Funcs) {
				return fmt.Errorf("vm: thread %d frame names function %d of %d", tw.ID, fw.Fn, len(prog.Funcs))
			}
			fn := &prog.Funcs[fw.Fn]
			if fw.PC < 0 || fw.PC > len(fn.Code) {
				return fmt.Errorf("vm: thread %d frame of %s parks at pc %d of %d", tw.ID, fn.Name, fw.PC, len(fn.Code))
			}
			if len(fw.Locals) < fn.NLocals {
				return fmt.Errorf("vm: thread %d frame of %s has %d locals, want %d", tw.ID, fn.Name, len(fw.Locals), fn.NLocals)
			}
		}
	}
	return nil
}

// noneOrBelow reports whether id is -1 (none) or in [0, n).
func noneOrBelow(id, n int) bool { return id >= -1 && id < n }

// allBelow reports whether every id is in [0, n).
func allBelow(ids []int, n int) bool {
	for _, id := range ids {
		if id < 0 || id >= n {
			return false
		}
	}
	return true
}

// Per-object overheads for MemEstimate, in bytes: an expression cell is
// an interface header (the nodes themselves are shared or interned), and
// the container constants approximate Go's per-element map and struct
// footprints without reflection.
const (
	memCell     = 16
	memMapEntry = 48
	memThread   = 96
	memFrame    = 64
	memOutput   = 48
)

// MemEstimate approximates the state's resident footprint: every
// expression cell (the slab Clone allocates), the heap/hint map entries,
// and the thread/frame/output structures. It walks only container
// lengths — never expression trees — so it is cheap enough to call per
// checkpoint on a metrics scrape, and it is what sizes the cache-tier
// memory budget.
func (st *State) MemEstimate() int64 {
	n := int64(0)
	for _, cells := range st.Globals {
		n += int64(len(cells)) * memCell
	}
	for _, blk := range st.heap {
		n += memMapEntry + int64(len(blk.Cells))*memCell
	}
	for _, t := range st.Threads {
		n += memThread
		for _, f := range t.Frames {
			n += memFrame + int64(len(f.Locals)+len(f.Stack))*memCell
		}
	}
	for _, o := range st.Outputs {
		n += memOutput + int64(len(o.Parts))*memCell
	}
	n += int64(len(st.PathCond)) * memCell
	n += int64(len(st.Hints)) * memMapEntry
	n += int64(len(st.In.Values)+len(st.Args))*8 + int64(len(st.SymArgs)+len(st.Suspended))
	return n
}
