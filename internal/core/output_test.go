package core

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/expr"
	"repro/internal/vm"
)

func mkOut(parts ...any) vm.Output {
	o := vm.Output{}
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			o.Parts = append(o.Parts, vm.OutPart{Lit: v})
		case int:
			o.Parts = append(o.Parts, vm.OutPart{E: expr.NewConst(int64(v))})
		case expr.Expr:
			o.Parts = append(o.Parts, vm.OutPart{E: v})
		}
	}
	return o
}

func TestConcreteOutputDiff(t *testing.T) {
	a := []vm.Output{mkOut("x=", 1), mkOut("y=", 2)}
	same := []vm.Output{mkOut("x=", 1), mkOut("y=", 2)}
	if d := concreteOutputDiff(a, same); d != nil {
		t.Fatalf("equal outputs flagged: %+v", d)
	}
	diffVal := []vm.Output{mkOut("x=", 1), mkOut("y=", 3)}
	d := concreteOutputDiff(a, diffVal)
	if d == nil || d.Index != 1 {
		t.Fatalf("value diff not found: %+v", d)
	}
	short := []vm.Output{mkOut("x=", 1)}
	d = concreteOutputDiff(a, short)
	if d == nil || d.Index != -1 || d.PrimaryN != 2 || d.AltN != 1 {
		t.Fatalf("count diff wrong: %+v", d)
	}
}

// symState builds a fake "primary" state with the given outputs, path
// condition, and hints.
func symState(t *testing.T, outs []vm.Output, pc []expr.Expr, hints expr.Assignment) *vm.State {
	t.Helper()
	p := bytecode.MustCompile(`fn main() {}`, "stub", bytecode.Options{})
	st := vm.NewState(p, nil, nil)
	st.Outputs = outs
	st.PathCond = pc
	for k, v := range hints {
		st.SetHint(k, v)
	}
	return st
}

func TestSymbolicOutputMatch(t *testing.T) {
	c := New(bytecode.MustCompile(`fn main() {}`, "stub", bytecode.Options{}), DefaultOptions())
	x := expr.NewSym("in0")
	// primary printed in0+1 under constraint in0 >= 0 (witness in0=7)
	prim := symState(t,
		[]vm.Output{mkOut("v=", expr.Add(x, expr.NewConst(1)))},
		[]expr.Expr{expr.Ge(x, expr.NewConst(0))},
		expr.Assignment{"in0": 7})

	// alternate printed 8: satisfiable with in0=7 → match.
	if d := c.symbolicOutputDiff(prim, []vm.Output{mkOut("v=", 8)}); d != nil {
		t.Fatalf("8 satisfies in0+1 under in0>=0: %+v", d)
	}
	// alternate printed 100: satisfiable with in0=99 → match (the point
	// of symbolic comparison: generalizes beyond the witness).
	if d := c.symbolicOutputDiff(prim, []vm.Output{mkOut("v=", 100)}); d != nil {
		t.Fatalf("100 satisfies in0+1 under in0>=0: %+v", d)
	}
	// alternate printed -5: in0 = -6 violates the path condition → diff.
	d := c.symbolicOutputDiff(prim, []vm.Output{mkOut("v=", -5)})
	if d == nil || d.Index != 0 {
		t.Fatalf("-5 cannot satisfy the constraints: %+v", d)
	}
}

func TestSymbolicOutputLiteralAndCountMismatch(t *testing.T) {
	c := New(bytecode.MustCompile(`fn main() {}`, "stub", bytecode.Options{}), DefaultOptions())
	prim := symState(t, []vm.Output{mkOut("tag=", 1)}, nil, nil)
	if d := c.symbolicOutputDiff(prim, []vm.Output{mkOut("other=", 1)}); d == nil {
		t.Fatal("literal mismatch must be a diff")
	}
	if d := c.symbolicOutputDiff(prim, nil); d == nil || d.Index != -1 {
		t.Fatalf("count mismatch must be index -1: %+v", d)
	}
}

func TestSymbolicOutputConjunctionAcrossRecords(t *testing.T) {
	c := New(bytecode.MustCompile(`fn main() {}`, "stub", bytecode.Options{}), DefaultOptions())
	x := expr.NewSym("in0")
	// primary printed in0 and then in0+1: one assignment must satisfy
	// both equalities simultaneously.
	prim := symState(t,
		[]vm.Output{mkOut(expr.Expr(x)), mkOut(expr.Add(x, expr.NewConst(1)))},
		nil, expr.Assignment{"in0": 3})
	// (5, 6) is consistent.
	if d := c.symbolicOutputDiff(prim, []vm.Output{mkOut(5), mkOut(6)}); d != nil {
		t.Fatalf("consistent pair flagged: %+v", d)
	}
	// (5, 9) is jointly unsatisfiable even though each value alone is fine.
	if d := c.symbolicOutputDiff(prim, []vm.Output{mkOut(5), mkOut(9)}); d == nil {
		t.Fatal("inconsistent pair must be a diff")
	}
}

func TestConcretizeOutputs(t *testing.T) {
	x := expr.NewSym("in0")
	prim := symState(t, []vm.Output{mkOut("v=", expr.Add(x, expr.NewConst(1)))}, nil,
		expr.Assignment{"in0": 41})
	outs := concretizeOutputs(prim)
	if outs[0].String() != "v=42" {
		t.Fatalf("got %q", outs[0].String())
	}
	// The original state keeps its symbolic outputs.
	if expr.IsConcrete(prim.Outputs[0].Parts[1].E) {
		t.Fatal("concretizeOutputs must not mutate the state")
	}
}
