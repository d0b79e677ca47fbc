package explore

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/vm"
)

// exploreAll runs the program with nSym symbolic inputs (hinted by the
// concrete inputs) and collects the final state of every explored path.
func exploreAll(t *testing.T, src string, inputs []int64, nSym, maxForks int) ([]*vm.State, []vm.RunResult, *Engine) {
	t.Helper()
	p := bytecode.MustCompile(src, "exp", bytecode.Options{})
	e := NewEngine(solver.New(solver.Options{}), maxForks)

	root := vm.NewState(p, nil, inputs)
	root.In.NSymbolic = nSym

	type item struct {
		st  *vm.State
		ctl vm.Controller
	}
	work := []item{{root, vm.NewRoundRobin()}}
	var states []*vm.State
	var results []vm.RunResult
	for len(work) > 0 && len(states) < 64 {
		it := work[0]
		work = work[1:]
		m := vm.NewMachine(it.st, it.ctl)
		res := e.RunForking(m, 200_000, func(sib *vm.State) {
			cc := it.ctl.(vm.CloneableController).CloneCtl()
			work = append(work, item{sib, cc})
		})
		states = append(states, it.st)
		results = append(results, res)
	}
	return states, results, e
}

func leafOutputs(states []*vm.State) []string {
	var outs []string
	for _, st := range states {
		outs = append(outs, strings.TrimSpace(st.RenderOutputs()))
	}
	sort.Strings(outs)
	return outs
}

func TestForkBothSides(t *testing.T) {
	states, results, _ := exploreAll(t, `
fn main() {
	let v = input()
	if v > 10 {
		print("big")
	} else {
		print("small")
	}
}`, []int64{42}, 1, 16)
	if len(states) != 2 {
		t.Fatalf("want 2 paths, got %d", len(states))
	}
	for _, r := range results {
		if r.Kind != vm.StopFinished {
			t.Fatalf("path did not finish: %v", r.Kind)
		}
	}
	outs := leafOutputs(states)
	if outs[0] != "big" || outs[1] != "small" {
		t.Fatalf("got %v", outs)
	}
}

func TestNestedBranchesFourPaths(t *testing.T) {
	states, _, _ := exploreAll(t, `
fn main() {
	let a = input()
	let b = input()
	if a > 0 { print("a+") } else { print("a-") }
	if b > 0 { print("b+") } else { print("b-") }
}`, []int64{1, 1}, 2, 16)
	if len(states) != 4 {
		t.Fatalf("want 4 paths, got %d", len(states))
	}
	got := map[string]bool{}
	for _, o := range leafOutputs(states) {
		got[strings.ReplaceAll(o, "\n", " ")] = true
	}
	for _, want := range []string{"a+ b+", "a+ b-", "a- b+", "a- b-"} {
		if !got[want] {
			t.Fatalf("missing path %q in %v", want, got)
		}
	}
}

func TestInfeasibleSideNotForked(t *testing.T) {
	// After taking v > 10, the inner v > 5 cannot be false.
	states, _, _ := exploreAll(t, `
fn main() {
	let v = input()
	if v > 10 {
		if v > 5 {
			print("both")
		} else {
			print("impossible")
		}
	} else {
		print("low")
	}
}`, []int64{20}, 1, 16)
	if len(states) != 2 {
		t.Fatalf("want 2 feasible paths, got %d", len(states))
	}
	for _, o := range leafOutputs(states) {
		if o == "impossible" {
			t.Fatal("explored an infeasible path")
		}
	}
}

func TestForkBudgetRespected(t *testing.T) {
	states, _, e := exploreAll(t, `
fn main() {
	let a = input()
	let b = input()
	let c = input()
	if a > 0 { print(1) } else { print(2) }
	if b > 0 { print(3) } else { print(4) }
	if c > 0 { print(5) } else { print(6) }
}`, []int64{1, 1, 1}, 3, 2)
	if len(states) != 3 { // root + 2 forks
		t.Fatalf("want 3 paths with budget 2, got %d", len(states))
	}
	if e.forksLeft != 0 {
		t.Fatalf("fork budget not exhausted: %d left", e.forksLeft)
	}
}

func TestAssertForkFindsViolation(t *testing.T) {
	states, results, _ := exploreAll(t, `
fn main() {
	let v = input()
	assert(v != 3)
	print("ok")
}`, []int64{10}, 1, 16)
	if len(states) != 2 {
		t.Fatalf("want 2 paths, got %d", len(states))
	}
	foundViolation := false
	for _, r := range results {
		if r.Kind == vm.StopError && r.Err.Kind == vm.ErrAssert {
			foundViolation = true
		}
	}
	if !foundViolation {
		t.Fatal("fork should discover the assert-violating input v=3")
	}
}

func TestDivByZeroFork(t *testing.T) {
	states, results, _ := exploreAll(t, `
fn main() {
	let v = input()
	print(100 / v)
}`, []int64{4}, 1, 16)
	if len(states) != 2 {
		t.Fatalf("want 2 paths, got %d", len(states))
	}
	foundDiv := false
	for _, r := range results {
		if r.Kind == vm.StopError && r.Err.Kind == vm.ErrDivZero {
			foundDiv = true
		}
	}
	if !foundDiv {
		t.Fatal("fork should discover the div-by-zero input v=0")
	}
}

func TestBranchCounting(t *testing.T) {
	_, _, e := exploreAll(t, `
fn main() {
	let v = input()
	if v > 0 { print(1) } else { print(0) }
}`, []int64{5}, 1, 16)
	if e.Branches() == 0 {
		t.Fatal("dependent branches should be counted")
	}
}

func TestConcreteProgramNoForks(t *testing.T) {
	states, _, e := exploreAll(t, `
fn main() {
	let v = input()
	if v > 0 { print(1) } else { print(0) }
}`, []int64{5}, 0, 16) // input NOT symbolic
	if len(states) != 1 {
		t.Fatalf("concrete run must not fork, got %d paths", len(states))
	}
	if e.Branches() != 0 {
		t.Fatal("no symbolic branches expected")
	}
}

func TestCallerBreakComposition(t *testing.T) {
	p := bytecode.MustCompile(`
var g = 0
fn main() {
	let v = input()
	if v > 0 { g = 1 } else { g = 2 }
	g = 3
}`, "exp", bytecode.Options{})
	e := NewEngine(solver.New(solver.Options{}), 4)
	st := vm.NewState(p, nil, []int64{7})
	st.In.NSymbolic = 1
	m := vm.NewMachine(st, vm.NewRoundRobin())
	// Caller break on the first shared write to g.
	m.Break = func(s *vm.State, tid int, pc bytecode.PCRef, in bytecode.Instr) bool {
		return in.Op == bytecode.STOREG
	}
	forks := 0
	res := e.RunForking(m, 100_000, func(sib *vm.State) { forks++ })
	if res.Kind != vm.StopBreak {
		t.Fatalf("want caller break, got %v", res.Kind)
	}
	if forks != 1 {
		t.Fatalf("the branch before the store must fork once, got %d", forks)
	}
	// The machine is parked exactly at the STOREG.
	th := st.Threads[st.Cur]
	fr := th.Top()
	if op := p.Funcs[fr.Fn].Code[fr.PC].Op; op != bytecode.STOREG {
		t.Fatalf("parked at %v, want STOREG", op)
	}
}

func TestSiblingPathConditionsDisjoint(t *testing.T) {
	states, _, _ := exploreAll(t, `
fn main() {
	let v = input()
	if v > 10 { print("big") } else { print("small") }
}`, []int64{42}, 1, 16)
	if len(states) != 2 {
		t.Fatalf("want 2 paths, got %d", len(states))
	}
	s := solver.New(solver.Options{})
	both := append(append([]expr.Expr{}, states[0].PathCond...), states[1].PathCond...)
	if _, r := s.Solve(both, nil); r != solver.Unsat {
		t.Fatalf("sibling path conditions should contradict, got %v", r)
	}
}
