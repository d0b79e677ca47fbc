package expr

import "fmt"

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
// survives the round trip: a node referenced twice is stored once and
// decoded once.
type NodeWire struct {
	Kind uint8
	Op   uint8
	Val  int64  // WireConst
	Name string // WireSym
	A, B int32  // child indices (WireUnary uses A; WireBinary uses A, B)
}

// Encoder flattens expression DAGs into a shared node table. One encoder
// may flatten many expressions (a whole VM state's cells, a solver
// query's conjuncts); nodes shared between them are emitted once.
type Encoder struct {
	nodes []NodeWire
	idx   map[Expr]int32
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{idx: make(map[Expr]int32)}
}

// Add flattens x into the table and returns its node index (-1 for nil).
// Identical pointers dedupe; structurally equal but distinct nodes are
// stored separately, which is harmless (decoding re-folds them).
func (e *Encoder) Add(x Expr) int32 {
	if x == nil {
		return -1
	}
	if i, ok := e.idx[x]; ok {
		return i
	}
	var n NodeWire
	switch v := x.(type) {
	case *Const:
		n = NodeWire{Kind: WireConst, Val: v.Val}
	case *Sym:
		n = NodeWire{Kind: WireSym, Name: v.Name}
	case *Unary:
		n = NodeWire{Kind: WireUnary, Op: uint8(v.Op), A: e.Add(v.X)}
	case *Binary:
		n = NodeWire{Kind: WireBinary, Op: uint8(v.Op), A: e.Add(v.L), B: e.Add(v.R)}
	}
	i := int32(len(e.nodes))
	e.nodes = append(e.nodes, n)
	e.idx[x] = i
	return i
}

// AddList flattens a slice of expressions, returning their indices.
func (e *Encoder) AddList(xs []Expr) []int32 {
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

// DecodeNodes rebuilds every expression of a node table, index-aligned
// with the input. Nodes are rebuilt through the package constructors:
// every stored tree was constructor-built (a normal form the constructors
// are fixpoints of), so re-folding reproduces the exact structure — and
// restores the intern-table sharing serialization cannot carry.
func DecodeNodes(nodes []NodeWire) ([]Expr, error) {
	built := make([]Expr, len(nodes))
	child := func(i int, ref int32) (Expr, error) {
		if ref < 0 || int(ref) >= i {
			return nil, fmt.Errorf("expr: node %d references %d (not a prior node)", i, ref)
		}
		return built[ref], nil
	}
	for i, n := range nodes {
		switch n.Kind {
		case WireConst:
			built[i] = NewConst(n.Val)
		case WireSym:
			built[i] = NewSym(n.Name)
		case WireUnary:
			x, err := child(i, n.A)
			if err != nil {
				return nil, err
			}
			built[i] = NewUnary(Op(n.Op), x)
		case WireBinary:
			l, err := child(i, n.A)
			if err != nil {
				return nil, err
			}
			r, err := child(i, n.B)
			if err != nil {
				return nil, err
			}
			built[i] = NewBinary(Op(n.Op), l, r)
		default:
			return nil, fmt.Errorf("expr: unknown wire node kind %d", n.Kind)
		}
	}
	return built, nil
}

// Decoder resolves node-table indices back to expressions.
type Decoder struct {
	built []Expr
}

// NewDecoder decodes the node table once and serves index lookups.
func NewDecoder(nodes []NodeWire) (*Decoder, error) {
	built, err := DecodeNodes(nodes)
	if err != nil {
		return nil, err
	}
	return &Decoder{built: built}, nil
}

// Get returns the expression at index i (-1 yields nil).
func (d *Decoder) Get(i int32) (Expr, error) {
	if i == -1 {
		return nil, nil
	}
	if i < 0 || int(i) >= len(d.built) {
		return nil, fmt.Errorf("expr: wire index %d out of range", i)
	}
	return d.built[i], nil
}

// GetList resolves a slice of indices.
func (d *Decoder) GetList(refs []int32) ([]Expr, error) {
	if refs == nil {
		return nil, nil
	}
	out := make([]Expr, len(refs))
	for i, r := range refs {
		x, err := d.Get(r)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}
