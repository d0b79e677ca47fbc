package expr

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternIdentityAndBounds(t *testing.T) {
	for _, v := range []int64{InternMin, -1, 0, 1, 2, 127, InternMax - 1} {
		a, b := NewConst(v), NewConst(v)
		if a != b {
			t.Errorf("NewConst(%d) not interned: distinct pointers", v)
		}
		if a.Val != v {
			t.Errorf("interned NewConst(%d).Val = %d", v, a.Val)
		}
		if !Interned(v) {
			t.Errorf("Interned(%d) = false inside the table range", v)
		}
	}
	for _, v := range []int64{InternMin - 1, InternMax, 1 << 40, -(1 << 40)} {
		if Interned(v) {
			t.Errorf("Interned(%d) = true outside the table range", v)
		}
		if a, b := NewConst(v), NewConst(v); a == b {
			t.Errorf("NewConst(%d): out-of-range constants unexpectedly shared", v)
		} else if a.Val != v || b.Val != v {
			t.Errorf("NewConst(%d) wrong value", v)
		}
	}
}

// TestEqual pins structural equality: separately built twins compare
// equal, a node assembled by hand included, and every ordered pair of
// distinct shapes compares unequal.
func TestEqual(t *testing.T) {
	x := NewSym("x")
	twins := []struct {
		name string
		a, b Expr
	}{
		{"constructor-built", NewBinary(OpAdd, x, NewConst(4)), NewBinary(OpAdd, NewSym("x"), NewConst(4))},
		{"hand-built", &Binary{Op: OpAdd, L: &Sym{Name: "x"}, R: &Const{Val: 4}}, NewBinary(OpAdd, x, NewConst(4))},
	}
	for _, tc := range twins {
		if !Equal(tc.a, tc.b) || !Equal(tc.b, tc.a) {
			t.Errorf("%s: %s and %s compare unequal", tc.name, tc.a, tc.b)
		}
	}

	distinct := func() []Expr {
		x, y := NewSym("x"), NewSym("y")
		return []Expr{
			NewConst(5),
			NewConst(6),
			NewSym("x"),
			NewSym("y"),
			NewBinary(OpAdd, x, y),
			NewBinary(OpAdd, y, x), // operand order matters for non-folded ops
			NewBinary(OpSub, x, y),
			NewUnary(OpBNot, x),
			NewBinary(OpLt, x, NewConst(200000)),
			NewBinary(OpLt, x, NewConst(200001)),
		}
	}
	es, fresh := distinct(), distinct()
	for i, a := range es {
		if !Equal(a, fresh[i]) {
			t.Errorf("%s does not equal its freshly built twin", a)
		}
		for j, b := range es {
			if i != j && Equal(a, b) {
				t.Errorf("Equal(%s, %s) = true", a, b)
			}
		}
	}
}

// TestInternSharedConcurrently proves interned constants and shared
// nodes are immutable in practice: concurrent classifiers share the
// nodes freely, so this test — run under -race in CI — hammers the
// table, rendering, and structural comparison from many goroutines at
// once. Any post-publication write to a shared node would trip the
// race detector.
func TestInternSharedConcurrently(t *testing.T) {
	// One shared DAG, built once, read by everyone.
	x := NewSym("x")
	shared := NewBinary(OpMul, NewBinary(OpAdd, x, NewConst(7)), NewConst(3))
	wantStr := shared.String()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := int64(i % (InternMax - InternMin))
				c := NewConst(v + InternMin)
				if c != NewConst(v+InternMin) {
					errs <- fmt.Errorf("g%d: intern identity broken for %d", g, v+InternMin)
					return
				}
				// Fold through the table: concrete arithmetic lands back
				// on interned nodes.
				sum := NewBinary(OpAdd, c, NewConst(1))
				if cv, ok := ConstVal(sum); !ok || cv != c.Val+1 {
					errs <- fmt.Errorf("g%d: folding through interned nodes broke", g)
					return
				}
				// Render the shared DAG; it must be stable.
				if i%97 == 0 && shared.String() != wantStr {
					errs <- fmt.Errorf("g%d: shared DAG rendering changed", g)
					return
				}
				// Build a structural twin concurrently and compare.
				twin := NewBinary(OpMul, NewBinary(OpAdd, NewSym("x"), NewConst(7)), NewConst(3))
				if !Equal(twin, shared) {
					errs <- fmt.Errorf("g%d: concurrent twin mismatch", g)
					return
				}
				// Substitution over the shared DAG produces fresh (or
				// interned) nodes, never mutates in place.
				if r, err := Eval(shared, Assignment{"x": v}); err != nil || r != (v+7)*3 {
					errs <- fmt.Errorf("g%d: eval over shared DAG = %d, %v", g, r, err)
					return
				}
				if s := Substitute(shared, Assignment{"x": v}); s == nil {
					errs <- fmt.Errorf("g%d: substitute returned nil", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if shared.String() != wantStr {
		t.Error("shared DAG changed after concurrent use")
	}
}

// TestNewConstAllocFree guards the hot-path claim: interned constants
// cost zero allocations.
func TestNewConstAllocFree(t *testing.T) {
	var sink *Const
	allocs := testing.AllocsPerRun(200, func() {
		for v := int64(InternMin); v < InternMax; v += 17 {
			sink = NewConst(v)
		}
	})
	if allocs != 0 {
		t.Errorf("interned NewConst allocates %v times per run, want 0", allocs)
	}
	_ = sink
}

// TestConstSlabMatchesNewBinary checks the slab's folding against
// NewBinary: for every binary operator over values around the intern
// bounds and far outside them, over a symbolic operand, and over the
// undefined cases left unfolded (division by zero, shifts out of
// range), Binary and BinaryK build a structurally equal expression,
// interned values come from the intern table, and the slab's constants
// are distinct nodes.
func TestConstSlabMatchesNewBinary(t *testing.T) {
	var s ConstSlab
	x := NewSym("x")
	vals := []int64{-1 << 40, -129, InternMin, -1, 0, 1, 2, 63, 64, InternMax - 1, InternMax, 5000, 1 << 40}
	seen := map[*Const]bool{}
	for op := OpAdd; op <= OpLOr; op++ {
		for _, l := range vals {
			for _, r := range vals {
				want := NewBinary(op, NewConst(l), NewConst(r))
				for _, got := range []Expr{s.Binary(op, NewConst(l), NewConst(r)), s.BinaryK(op, NewConst(l), r)} {
					if !Equal(got, want) {
						t.Fatalf("%v %v %v: slab built %v, NewBinary %v", l, op, r, got, want)
					}
					if c, ok := got.(*Const); ok && !Interned(c.Val) {
						if seen[c] {
							t.Fatalf("%v %v %v: slab handed out one Const twice", l, op, r)
						}
						seen[c] = true
					} else if ok && c != NewConst(c.Val) {
						t.Fatalf("%v %v %v: interned result %d is not the table's node", l, op, r, c.Val)
					}
				}
			}
			want := NewBinary(op, x, NewConst(l))
			if got := s.BinaryK(op, x, l); !Equal(got, want) {
				t.Fatalf("x %v %v: slab built %v, NewBinary %v", op, l, got, want)
			}
			if got := s.Binary(op, x, NewConst(l)); !Equal(got, want) {
				t.Fatalf("x %v %v: slab built %v, NewBinary %v", op, l, got, want)
			}
		}
	}
	if len(seen) <= slabChunk {
		t.Fatalf("only %d slab constants; the test never crossed a chunk boundary", len(seen))
	}
}
