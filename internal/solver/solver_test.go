package solver

import (
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func sym(n string) expr.Expr { return expr.NewSym(n) }
func ci(v int64) expr.Expr   { return expr.NewConst(v) }
func solveOne(cs ...expr.Expr) (expr.Assignment, Result) {
	return New(Options{}).Solve(cs, nil)
}

func mustSat(t *testing.T, cs ...expr.Expr) expr.Assignment {
	t.Helper()
	m, r := solveOne(cs...)
	if r != Sat {
		t.Fatalf("want sat, got %v for %v", r, cs)
	}
	for _, c := range cs {
		v, err := expr.Eval(c, m)
		if err != nil || v == 0 {
			t.Fatalf("model %v does not satisfy %s (v=%d err=%v)", m, c, v, err)
		}
	}
	return m
}

func TestEmptyIsSat(t *testing.T) {
	m, r := solveOne()
	if r != Sat || m == nil {
		t.Fatalf("empty conjunction must be sat, got %v", r)
	}
}

func TestConstantConstraints(t *testing.T) {
	if _, r := solveOne(ci(1)); r != Sat {
		t.Fatal("constant-true must be sat")
	}
	if _, r := solveOne(ci(0)); r != Unsat {
		t.Fatal("constant-false must be unsat")
	}
	if _, r := solveOne(ci(1), ci(0), expr.Gt(sym("x"), ci(3))); r != Unsat {
		t.Fatal("any constant-false conjunct must give unsat")
	}
}

func TestSimpleComparison(t *testing.T) {
	m := mustSat(t, expr.Gt(sym("x"), ci(10)))
	if m["x"] <= 10 {
		t.Fatalf("bad model %v", m)
	}
}

func TestEqualityChain(t *testing.T) {
	m := mustSat(t,
		expr.Eq(sym("x"), ci(42)),
		expr.Eq(sym("y"), expr.Add(sym("x"), ci(1))),
	)
	if m["x"] != 42 || m["y"] != 43 {
		t.Fatalf("bad model %v", m)
	}
}

func TestContradiction(t *testing.T) {
	_, r := solveOne(
		expr.Gt(sym("x"), ci(10)),
		expr.Lt(sym("x"), ci(5)),
	)
	if r != Unsat {
		t.Fatalf("want unsat, got %v", r)
	}
}

func TestEqNeContradiction(t *testing.T) {
	_, r := solveOne(
		expr.Eq(sym("x"), ci(7)),
		expr.Ne(sym("x"), ci(7)),
	)
	if r != Unsat {
		t.Fatalf("want unsat, got %v", r)
	}
}

func TestTightInterval(t *testing.T) {
	m := mustSat(t,
		expr.Ge(sym("x"), ci(31)),
		expr.Le(sym("x"), ci(31)),
	)
	if m["x"] != 31 {
		t.Fatalf("bad model %v", m)
	}
}

func TestLinearNormalization(t *testing.T) {
	// x + 5 == 12  →  x = 7
	m := mustSat(t, expr.Eq(expr.Add(sym("x"), ci(5)), ci(12)))
	if m["x"] != 7 {
		t.Fatalf("bad model %v", m)
	}
	// 10 - x < 3  →  x > 7
	m = mustSat(t, expr.Lt(expr.Sub(ci(10), sym("x")), ci(3)))
	if m["x"] <= 7 {
		t.Fatalf("bad model %v", m)
	}
	// x - 4 >= 0 → x >= 4
	m = mustSat(t, expr.Ge(expr.Sub(sym("x"), ci(4)), ci(0)))
	if m["x"] < 4 {
		t.Fatalf("bad model %v", m)
	}
}

func TestConjunctionSplitting(t *testing.T) {
	c := expr.LAnd(expr.Gt(sym("x"), ci(0)), expr.Lt(sym("x"), ci(3)))
	m := mustSat(t, c)
	if m["x"] <= 0 || m["x"] >= 3 {
		t.Fatalf("bad model %v", m)
	}
}

func TestDisjunction(t *testing.T) {
	// x == 3 || x == 100, and x > 50 — needs the search, not propagation.
	m := mustSat(t,
		expr.LOr(expr.Eq(sym("x"), ci(3)), expr.Eq(sym("x"), ci(100))),
		expr.Gt(sym("x"), ci(50)),
	)
	if m["x"] != 100 {
		t.Fatalf("bad model %v", m)
	}
}

func TestMultiVariable(t *testing.T) {
	m := mustSat(t,
		expr.Eq(expr.Add(sym("x"), sym("y")), ci(10)),
		expr.Gt(sym("x"), ci(6)),
		expr.Ge(sym("y"), ci(0)),
		expr.Le(sym("x"), ci(10)),
	)
	if m["x"]+m["y"] != 10 || m["x"] <= 6 || m["y"] < 0 {
		t.Fatalf("bad model %v", m)
	}
}

func TestHintsBiasSearch(t *testing.T) {
	s := New(Options{})
	m, r := s.Solve([]expr.Expr{expr.Ge(sym("x"), ci(0))}, expr.Assignment{"x": 17})
	if r != Sat || m["x"] != 17 {
		t.Fatalf("hint should be preferred: %v %v", m, r)
	}
	// A hint that violates the constraints must be ignored.
	m, r = s.Solve([]expr.Expr{expr.Gt(sym("x"), ci(100))}, expr.Assignment{"x": 17})
	if r != Sat || m["x"] <= 100 {
		t.Fatalf("invalid hint must not leak into model: %v %v", m, r)
	}
}

func TestBooleanFlagConstraints(t *testing.T) {
	// Typical workload query: flag ∈ {0,1}, flag == 0 path.
	m := mustSat(t,
		expr.Ge(sym("flag"), ci(0)),
		expr.Le(sym("flag"), ci(1)),
		expr.Eq(sym("flag"), ci(0)),
	)
	if m["flag"] != 0 {
		t.Fatalf("bad model %v", m)
	}
	_, r := solveOne(
		expr.Ge(sym("flag"), ci(0)),
		expr.Le(sym("flag"), ci(1)),
		expr.Eq(sym("flag"), ci(2)),
	)
	if r != Unsat {
		t.Fatalf("flag==2 in [0,1] must be unsat, got %v", r)
	}
}

func TestOutputMatchQueryShape(t *testing.T) {
	// The classifier's symbolic output comparison: pc ∧ (symOut == concrete).
	// primary printed x+1 under pc x>=0; alternate printed 8.
	pc := []expr.Expr{expr.Ge(sym("x"), ci(0))}
	eq := expr.Eq(expr.Add(sym("x"), ci(1)), ci(8))
	s := New(Options{})
	m, r := s.Solve(append(append([]expr.Expr{}, pc...), eq), nil)
	if r != Sat || m["x"] != 7 {
		t.Fatalf("want x=7, got %v %v", m, r)
	}
	// alternate printed -5: impossible under pc.
	eq2 := expr.Eq(expr.Add(sym("x"), ci(1)), ci(-5))
	_, r = s.Solve(append(append([]expr.Expr{}, pc...), eq2), nil)
	if r != Unsat {
		t.Fatalf("want unsat, got %v", r)
	}
}

func TestModBasedConstraint(t *testing.T) {
	// Not linear: relies on the candidate search.
	m := mustSat(t,
		expr.Eq(expr.Mod(sym("x"), ci(4)), ci(0)),
		expr.Gt(sym("x"), ci(0)),
		expr.Le(sym("x"), ci(16)),
	)
	if m["x"]%4 != 0 || m["x"] <= 0 {
		t.Fatalf("bad model %v", m)
	}
}

func TestUnknownOnHugeDomain(t *testing.T) {
	// A multiplicative constraint the candidate heuristics cannot hit:
	// with a tiny candidate budget the solver must answer Unknown, never a
	// wrong Unsat with completeness claimed.
	s := New(Options{MaxCandidatesPerVar: 4, MaxNodes: 100})
	_, r := s.Solve([]expr.Expr{
		expr.Eq(expr.Mul(sym("x"), sym("x")), ci(1234321)),
	}, nil)
	if r == Sat {
		t.Fatalf("should not find model with tiny budget, got %v", r)
	}
	if r == Unsat {
		t.Fatalf("must not claim unsat without complete enumeration")
	}
}

// TestInterruptAnswersUnknown: a query aborted by the Interrupt hook
// answers Unknown — a cancellation never claims Unsat.
func TestInterruptAnswersUnknown(t *testing.T) {
	s := New(Options{})
	s.Interrupt = func() bool { return true }
	// A two-variable nonlinear query with no candidate solution keeps the
	// backtracking search running long enough to hit the interrupt poll.
	q := []expr.Expr{expr.Eq(expr.NewBinary(expr.OpMul, sym("x"), sym("y")), ci((1<<40)+3))}
	if _, r := s.Solve(q, nil); r != Unknown {
		t.Fatalf("interrupted query = %v, want Unknown", r)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Options{})
	s.Solve([]expr.Expr{expr.Gt(sym("x"), ci(0))}, nil)
	s.Solve([]expr.Expr{expr.Lt(sym("x"), ci(0))}, nil)
	if s.Queries() != 2 {
		t.Fatalf("queries = %d, want 2", s.Queries())
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatal("bad Result strings")
	}
}

// Property: any model returned by Solve satisfies every constraint.
func TestQuickModelsAreWitnesses(t *testing.T) {
	s := New(Options{})
	f := func(a, b int8, useAnd bool) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		cs := []expr.Expr{
			expr.Ge(sym("x"), ci(lo)),
			expr.Le(sym("x"), ci(hi)),
		}
		if useAnd {
			cs = append(cs, expr.Ne(sym("x"), ci(lo)))
		}
		m, r := s.Solve(cs, nil)
		if r == Unsat {
			// Only possible when interval collapses to the excluded point.
			return useAnd && lo == hi
		}
		if r != Sat {
			return false
		}
		for _, c := range cs {
			v, err := expr.Eval(c, m)
			if err != nil || v == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve is deterministic — same query, same model.
func TestQuickDeterministic(t *testing.T) {
	f := func(a int16) bool {
		cs := []expr.Expr{expr.Gt(sym("x"), ci(int64(a)))}
		m1, r1 := New(Options{}).Solve(cs, nil)
		m2, r2 := New(Options{}).Solve(cs, nil)
		if r1 != r2 {
			return false
		}
		if r1 == Sat && m1["x"] != m2["x"] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
