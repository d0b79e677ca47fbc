package vm

import (
	"sort"

	"repro/internal/bytecode"
	"repro/internal/expr"
)

// This file is the state's wire form, kept as a test oracle: the period
// and quantum tests compare two states by the gob bytes of their
// EncodeState forms. No program code serializes a state.

// StateWire is the serializable form of a State: every expression cell
// flattened into one shared node table (indices reference it), maps
// rendered as sorted slices so the wire form is canonical, and observers
// reduced to opaque (kind, payload) pairs via the caller's codec — the
// VM does not know the concrete observer types analysis layers attach.
// The program is absent: states compared by their wire bytes share it.
type StateWire struct {
	Nodes []NodeWire

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
// no wire form, and the whole state then has none.
type ObsEncoder func(Observer) (kind string, data []byte, ok bool)

// EncodeState flattens st into its wire form. ok is false when an
// observer cannot be serialized; encObs may be nil when the state is
// known to carry no observers.
func EncodeState(st *State, encObs ObsEncoder) (w *StateWire, ok bool) {
	enc := NewEncoder()
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

	// argSyms is a memo (symbols compare by name), left out.
	w.Nodes = enc.Nodes()
	return w, true
}

// Node kinds of the wire form.
const (
	WireConst uint8 = iota
	WireSym
	WireUnary
	WireBinary
)

// NodeWire is one expression node in flattened wire form. Expressions
// serialize as a topologically ordered node table — children strictly
// before parents — with A/B holding child indices, so DAG sharing
// shows in the wire form: a node referenced twice is stored once.
type NodeWire struct {
	Kind uint8
	Op   uint8
	Val  int64  // WireConst
	Name string // WireSym
	A, B int32  // child indices (WireUnary uses A; WireBinary uses A, B)
}

// Encoder flattens expression DAGs into a shared node table. One encoder
// flattens a whole VM state's cells; nodes shared between them are
// emitted once.
type Encoder struct {
	nodes []NodeWire
	idx   map[expr.Expr]int32
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{idx: make(map[expr.Expr]int32)}
}

// Add flattens x into the table and returns its node index (-1 for nil).
// Identical pointers dedupe; structurally equal but distinct nodes are
// stored separately.
func (e *Encoder) Add(x expr.Expr) int32 {
	if x == nil {
		return -1
	}
	if i, ok := e.idx[x]; ok {
		return i
	}
	var n NodeWire
	switch v := x.(type) {
	case *expr.Const:
		n = NodeWire{Kind: WireConst, Val: v.Val}
	case *expr.Sym:
		n = NodeWire{Kind: WireSym, Name: v.Name}
	case *expr.Unary:
		n = NodeWire{Kind: WireUnary, Op: uint8(v.Op), A: e.Add(v.X)}
	case *expr.Binary:
		n = NodeWire{Kind: WireBinary, Op: uint8(v.Op), A: e.Add(v.L), B: e.Add(v.R)}
	}
	i := int32(len(e.nodes))
	e.nodes = append(e.nodes, n)
	e.idx[x] = i
	return i
}

// AddList flattens a slice of expressions, returning their indices.
func (e *Encoder) AddList(xs []expr.Expr) []int32 {
	if xs == nil {
		return nil
	}
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = e.Add(x)
	}
	return out
}

// Nodes returns the accumulated node table.
func (e *Encoder) Nodes() []NodeWire { return e.nodes }
