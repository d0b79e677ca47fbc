// Package expr implements the immutable symbolic expression language used
// throughout the Portend reproduction.
//
// Expressions form a DAG over 64-bit signed integers. Boolean values are
// represented as the integers 0 (false) and 1 (true); the comparison and
// logical operators always produce 0 or 1. Concrete values are Const nodes,
// program inputs that have been marked symbolic are Sym nodes, and the
// arithmetic/relational/logical operators combine them.
//
// All constructors perform constant folding and light algebraic
// simplification, so an expression tree built from concrete operands is
// always a single Const. This mirrors how KLEE keeps fully-concrete states
// cheap while still tracking constraints for symbolic ones.
//
// Expressions are immutable and may be shared freely between checkpointed
// virtual-machine states; cloning a VM state never needs to copy them.
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies an operator of a Unary or Binary expression.
type Op uint8

// Operators. Comparison and logical operators evaluate to 0 or 1.
const (
	OpInvalid Op = iota

	// binary arithmetic
	OpAdd
	OpSub
	OpMul
	OpDiv // truncated toward zero, like Go
	OpMod

	// binary bitwise
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// binary comparison (result 0/1)
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// binary logical (operands normalized to 0/1, result 0/1)
	OpLAnd
	OpLOr

	// unary
	OpNeg  // arithmetic negation
	OpBNot // bitwise complement
	OpLNot // logical not (result 0/1)
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLAnd: "&&", OpLOr: "||",
	OpNeg: "-", OpBNot: "~", OpLNot: "!",
}

// String returns the source-level spelling of the operator.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsComparison reports whether op is one of the six relational operators.
func (op Op) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// IsLogical reports whether op is a logical connective (including OpLNot).
func (op Op) IsLogical() bool {
	switch op {
	case OpLAnd, OpLOr, OpLNot:
		return true
	}
	return false
}

// Expr is an immutable symbolic expression over int64.
type Expr interface {
	// String renders the expression in PIL-like syntax.
	String() string
	// isExpr restricts implementations to this package.
	isExpr()
}

// Const is a concrete 64-bit integer.
type Const struct {
	Val int64
}

// Sym is a symbolic variable (an unconstrained program input). Symbols are
// identified by name; the VM guarantees unique names per execution
// ("input:3", "arg:1", ...).
type Sym struct {
	Name string
}

// Unary applies Op to a single operand.
type Unary struct {
	Op Op
	X  Expr
}

// Binary applies Op to two operands.
type Binary struct {
	Op   Op
	L, R Expr
}

func (*Const) isExpr()  {}
func (*Sym) isExpr()    {}
func (*Unary) isExpr()  {}
func (*Binary) isExpr() {}

func (c *Const) String() string { return fmt.Sprintf("%d", c.Val) }
func (s *Sym) String() string   { return s.Name }
func (u *Unary) String() string { return fmt.Sprintf("%s(%s)", u.Op, u.X) }
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// The intern table: one shared immutable Const per value in
// [InternMin, InternMax). These values — loop counters, array indices,
// small bounds, flags — dominate real programs, and the VM mints a Const
// on every PUSH, local/global initialization, and spawn, so serving them
// from the table removes an allocation from nearly every interpreted
// arithmetic instruction. Interned nodes are constructed once during
// package init and never written afterwards, which is what makes sharing
// them between concurrent classifiers safe.
const (
	// InternMin is the smallest interned constant value.
	InternMin = -128
	// InternMax is one past the largest interned constant value.
	InternMax = 1024
)

var internTab = func() [InternMax - InternMin]*Const {
	var t [InternMax - InternMin]*Const
	for i := range t {
		t[i] = &Const{Val: int64(i) + InternMin}
	}
	return t
}()

// Common constants, shared to reduce allocation.
var (
	zero = internTab[0-InternMin]
	one  = internTab[1-InternMin]
)

// Interned reports whether NewConst(v) is served from the intern table
// (i.e. without allocating). The VM uses this to count intern hits on its
// hot path without reaching into the table itself.
func Interned(v int64) bool { return v >= InternMin && v < InternMax }

// NewConst returns a Const with the given value. Values in
// [InternMin, InternMax) are served from the shared intern table and do
// not allocate.
func NewConst(v int64) *Const {
	if v >= InternMin && v < InternMax {
		return internTab[v-InternMin]
	}
	return &Const{Val: v}
}

// Bool converts a Go bool to the canonical 0/1 Const.
func Bool(b bool) *Const {
	if b {
		return one
	}
	return zero
}

// NewSym returns a symbolic variable with the given name.
func NewSym(name string) *Sym { return &Sym{Name: name} }

// ConstVal reports whether e is a Const and returns its value.
func ConstVal(e Expr) (int64, bool) {
	if c, ok := e.(*Const); ok {
		return c.Val, true
	}
	return 0, false
}

// IsConcrete reports whether e contains no symbolic variables.
// It is equivalent to len(Vars(e)) == 0 but does not allocate.
func IsConcrete(e Expr) bool {
	switch v := e.(type) {
	case *Const:
		return true
	case *Sym:
		return false
	case *Unary:
		return IsConcrete(v.X)
	case *Binary:
		return IsConcrete(v.L) && IsConcrete(v.R)
	}
	return false
}

// truthy maps an int64 to canonical bool form.
func truthy(v int64) bool { return v != 0 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// applyBinary evaluates op on two concrete values. ok is false when the
// operation is undefined (division or modulo by zero, shift out of range);
// undefined operations are left unfolded so the VM can raise a runtime
// error with proper context.
func applyBinary(op Op, l, r int64) (v int64, ok bool) {
	switch op {
	case OpAdd:
		return l + r, true
	case OpSub:
		return l - r, true
	case OpMul:
		return l * r, true
	case OpDiv:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case OpMod:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case OpAnd:
		return l & r, true
	case OpOr:
		return l | r, true
	case OpXor:
		return l ^ r, true
	case OpShl:
		if r < 0 || r > 63 {
			return 0, false
		}
		return l << uint(r), true
	case OpShr:
		if r < 0 || r > 63 {
			return 0, false
		}
		return l >> uint(r), true
	case OpEq:
		return b2i(l == r), true
	case OpNe:
		return b2i(l != r), true
	case OpLt:
		return b2i(l < r), true
	case OpLe:
		return b2i(l <= r), true
	case OpGt:
		return b2i(l > r), true
	case OpGe:
		return b2i(l >= r), true
	case OpLAnd:
		return b2i(truthy(l) && truthy(r)), true
	case OpLOr:
		return b2i(truthy(l) || truthy(r)), true
	}
	return 0, false
}

// applyUnary evaluates op on a concrete value.
func applyUnary(op Op, x int64) (int64, bool) {
	switch op {
	case OpNeg:
		return -x, true
	case OpBNot:
		return ^x, true
	case OpLNot:
		return b2i(!truthy(x)), true
	}
	return 0, false
}

// NewBinary builds op(l, r), folding constants and applying algebraic
// identities. The result of a comparison or logical operator is always a
// 0/1-valued expression.
func NewBinary(op Op, l, r Expr) Expr {
	lc, lok := ConstVal(l)
	rc, rok := ConstVal(r)
	if lok && rok {
		if v, ok := applyBinary(op, lc, rc); ok {
			return NewConst(v)
		}
		// e.g. division by constant zero
		return &Binary{Op: op, L: l, R: r}
	}

	// Algebraic identities on one concrete operand.
	switch op {
	case OpAdd:
		if lok && lc == 0 {
			return r
		}
		if rok && rc == 0 {
			return l
		}
	case OpSub:
		if rok && rc == 0 {
			return l
		}
		if Equal(l, r) {
			return zero
		}
	case OpMul:
		if lok && lc == 0 || rok && rc == 0 {
			return zero
		}
		if lok && lc == 1 {
			return r
		}
		if rok && rc == 1 {
			return l
		}
	case OpDiv:
		if rok && rc == 1 {
			return l
		}
	case OpAnd:
		if lok && lc == 0 || rok && rc == 0 {
			return zero
		}
	case OpOr, OpXor:
		if lok && lc == 0 {
			return r
		}
		if rok && rc == 0 {
			return l
		}
	case OpShl, OpShr:
		if rok && rc == 0 {
			return l
		}
	case OpEq:
		if Equal(l, r) {
			return one
		}
	case OpNe:
		if Equal(l, r) {
			return zero
		}
	case OpLe, OpGe:
		if Equal(l, r) {
			return one
		}
	case OpLt, OpGt:
		if Equal(l, r) {
			return zero
		}
	case OpLAnd:
		if lok {
			if !truthy(lc) {
				return zero
			}
			return NeZero(r)
		}
		if rok {
			if !truthy(rc) {
				return zero
			}
			return NeZero(l)
		}
	case OpLOr:
		if lok {
			if truthy(lc) {
				return one
			}
			return NeZero(r)
		}
		if rok {
			if truthy(rc) {
				return one
			}
			return NeZero(l)
		}
	}
	return &Binary{Op: op, L: l, R: r}
}

// ConstSlab mints the non-interned Consts of one single-goroutine
// producer (a VM machine) from 32-entry chunks instead of one heap
// object each; interned values never touch it. Every slot is written
// once, before its pointer is returned, and never again, so the Consts
// it hands out are as immutable and shareable as NewConst's. A chunk
// stays alive while any of its Consts is referenced. The zero value is
// ready to use; a ConstSlab must not be used from two goroutines at
// once.
type ConstSlab struct {
	chunk *[slabChunk]Const
	used  int // slots of chunk handed out; an int, so take stores no pointer
}

const slabChunk = 32

// Const is NewConst(v), with a non-interned result taken from the slab.
// It inlines, so an interned value costs its caller no call.
func (s *ConstSlab) Const(v int64) *Const {
	if v >= InternMin && v < InternMax {
		return internTab[v-InternMin]
	}
	return s.take(v)
}

// take fills the next free slot with v, starting a fresh chunk when the
// current one is used up.
func (s *ConstSlab) take(v int64) *Const {
	if s.chunk == nil || s.used == slabChunk {
		s.chunk, s.used = new([slabChunk]Const), 0
	}
	c := &s.chunk[s.used]
	s.used++
	*c = Const{Val: v}
	return c
}

// Binary is NewBinary(op, l, r), with a folded non-interned result taken
// from the slab.
func (s *ConstSlab) Binary(op Op, l, r Expr) Expr {
	if lc, ok := l.(*Const); ok {
		if rc, ok := r.(*Const); ok {
			if v, ok := applyBinary(op, lc.Val, rc.Val); ok {
				return s.Const(v)
			}
		}
	}
	return NewBinary(op, l, r)
}

// BinaryK is NewBinary(op, x, NewConst(k)). A concrete x folds without
// minting k's Const at all, its result taken from the slab.
func (s *ConstSlab) BinaryK(op Op, x Expr, k int64) Expr {
	if xc, ok := x.(*Const); ok {
		if v, ok := applyBinary(op, xc.Val, k); ok {
			return s.Const(v)
		}
	}
	return NewBinary(op, x, NewConst(k))
}

// NewUnary builds op(x) with constant folding and double-negation
// elimination.
func NewUnary(op Op, x Expr) Expr {
	if c, ok := ConstVal(x); ok {
		if v, ok := applyUnary(op, c); ok {
			return NewConst(v)
		}
	}
	if u, ok := x.(*Unary); ok && u.Op == op && (op == OpNeg || op == OpBNot) {
		return u.X // -(-x) = x, ^(^x) = x
	}
	if op == OpLNot {
		// !(a cmp b) inverts the comparison; keeps constraints small.
		if b, ok := x.(*Binary); ok {
			if inv, ok := invertCmp(b.Op); ok {
				return NewBinary(inv, b.L, b.R)
			}
		}
		if u, ok := x.(*Unary); ok && u.Op == OpLNot {
			return NeZero(u.X) // !!x = (x != 0)
		}
	}
	return &Unary{Op: op, X: x}
}

func invertCmp(op Op) (Op, bool) {
	switch op {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	}
	return OpInvalid, false
}

// Convenience constructors.

// Add returns l + r.
func Add(l, r Expr) Expr { return NewBinary(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return NewBinary(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return NewBinary(OpMul, l, r) }

// Div returns l / r (truncated).
func Div(l, r Expr) Expr { return NewBinary(OpDiv, l, r) }

// Mod returns l % r.
func Mod(l, r Expr) Expr { return NewBinary(OpMod, l, r) }

// Eq returns l == r as a 0/1 expression.
func Eq(l, r Expr) Expr { return NewBinary(OpEq, l, r) }

// Ne returns l != r as a 0/1 expression.
func Ne(l, r Expr) Expr { return NewBinary(OpNe, l, r) }

// Lt returns l < r as a 0/1 expression.
func Lt(l, r Expr) Expr { return NewBinary(OpLt, l, r) }

// Le returns l <= r as a 0/1 expression.
func Le(l, r Expr) Expr { return NewBinary(OpLe, l, r) }

// Gt returns l > r as a 0/1 expression.
func Gt(l, r Expr) Expr { return NewBinary(OpGt, l, r) }

// Ge returns l >= r as a 0/1 expression.
func Ge(l, r Expr) Expr { return NewBinary(OpGe, l, r) }

// LAnd returns l && r as a 0/1 expression.
func LAnd(l, r Expr) Expr { return NewBinary(OpLAnd, l, r) }

// LOr returns l || r as a 0/1 expression.
func LOr(l, r Expr) Expr { return NewBinary(OpLOr, l, r) }

// LNot returns !x as a 0/1 expression.
func LNot(x Expr) Expr { return NewUnary(OpLNot, x) }

// Neg returns -x.
func Neg(x Expr) Expr { return NewUnary(OpNeg, x) }

// NeZero normalizes x to a 0/1 expression (x != 0). Expressions that are
// already comparisons or logical connectives are returned unchanged.
func NeZero(x Expr) Expr {
	if c, ok := ConstVal(x); ok {
		return Bool(truthy(c))
	}
	switch v := x.(type) {
	case *Binary:
		if v.Op.IsComparison() || v.Op.IsLogical() {
			return x
		}
	case *Unary:
		if v.Op == OpLNot {
			return x
		}
	}
	return NewBinary(OpNe, x, zero)
}

// Equal reports structural equality of two expressions. A node shared
// by both sides is equal by pointer; otherwise the trees are walked in
// step.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	switch av := a.(type) {
	case *Const:
		bv, ok := b.(*Const)
		return ok && av.Val == bv.Val
	case *Sym:
		bv, ok := b.(*Sym)
		return ok && av.Name == bv.Name
	case *Unary:
		bv, ok := b.(*Unary)
		return ok && av.Op == bv.Op && Equal(av.X, bv.X)
	case *Binary:
		bv, ok := b.(*Binary)
		return ok && av.Op == bv.Op && Equal(av.L, bv.L) && Equal(av.R, bv.R)
	}
	return false
}

// Assignment maps symbolic variable names to concrete values.
type Assignment map[string]int64

// EvalError describes a failed evaluation: an unbound symbol or an undefined
// arithmetic operation.
type EvalError struct {
	Reason string
}

func (e *EvalError) Error() string { return "expr: " + e.Reason }

// Eval evaluates e under the assignment. Unbound symbols and undefined
// operations (division by zero, shift out of range) yield an EvalError.
func Eval(e Expr, env Assignment) (int64, error) {
	switch v := e.(type) {
	case *Const:
		return v.Val, nil
	case *Sym:
		val, ok := env[v.Name]
		if !ok {
			return 0, &EvalError{Reason: "unbound symbol " + v.Name}
		}
		return val, nil
	case *Unary:
		x, err := Eval(v.X, env)
		if err != nil {
			return 0, err
		}
		r, ok := applyUnary(v.Op, x)
		if !ok {
			return 0, &EvalError{Reason: "undefined unary op " + v.Op.String()}
		}
		return r, nil
	case *Binary:
		l, err := Eval(v.L, env)
		if err != nil {
			return 0, err
		}
		// Short-circuit semantics for logical connectives.
		switch v.Op {
		case OpLAnd:
			if !truthy(l) {
				return 0, nil
			}
		case OpLOr:
			if truthy(l) {
				return 1, nil
			}
		}
		r, err := Eval(v.R, env)
		if err != nil {
			return 0, err
		}
		res, ok := applyBinary(v.Op, l, r)
		if !ok {
			return 0, &EvalError{Reason: fmt.Sprintf("undefined operation %d %s %d", l, v.Op, r)}
		}
		return res, nil
	}
	return 0, &EvalError{Reason: "unknown expression node"}
}

// Substitute replaces symbols bound in env with constants and re-folds the
// expression. Symbols absent from env remain symbolic.
func Substitute(e Expr, env Assignment) Expr {
	switch v := e.(type) {
	case *Const:
		return v
	case *Sym:
		if val, ok := env[v.Name]; ok {
			return NewConst(val)
		}
		return v
	case *Unary:
		return NewUnary(v.Op, Substitute(v.X, env))
	case *Binary:
		return NewBinary(v.Op, Substitute(v.L, env), Substitute(v.R, env))
	}
	return e
}

// Vars returns the names of all symbolic variables in e, sorted and
// de-duplicated.
func Vars(e Expr) []string {
	set := map[string]struct{}{}
	collectVars(e, set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CollectVars adds the names of all symbolic variables in e to set.
func CollectVars(e Expr, set map[string]struct{}) { collectVars(e, set) }

func collectVars(e Expr, set map[string]struct{}) {
	switch v := e.(type) {
	case *Sym:
		set[v.Name] = struct{}{}
	case *Unary:
		collectVars(v.X, set)
	case *Binary:
		collectVars(v.L, set)
		collectVars(v.R, set)
	}
}

// Size returns the number of nodes in the expression tree. Used to bound
// constraint growth during symbolic execution.
func Size(e Expr) int {
	switch v := e.(type) {
	case *Const, *Sym:
		return 1
	case *Unary:
		return 1 + Size(v.X)
	case *Binary:
		return 1 + Size(v.L) + Size(v.R)
	}
	return 1
}

// FormatList renders a slice of expressions as a comma-separated string;
// handy in debug reports.
func FormatList(es []Expr) string {
	var b strings.Builder
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	return b.String()
}
