package pstate

import (
	"math/rand"
	"testing"
)

// TestVectorBasics exercises Append/Get/Len across the trie's growth
// boundaries (leaf root → one interior level → two), under one epoch.
func TestVectorBasics(t *testing.T) {
	var v Vector[int]
	if v.Len() != 0 {
		t.Fatalf("zero Vector has Len %d", v.Len())
	}
	const n = width*width + 3*width + 7 // forces two root push-downs
	for i := 0; i < n; i++ {
		v.Append(i*10, 1)
		if v.Len() != i+1 {
			t.Fatalf("Len after %d appends = %d", i+1, v.Len())
		}
	}
	for i := 0; i < n; i++ {
		if got := v.Get(i); got != i*10 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*10)
		}
	}
}

// TestVectorSet overwrites random slots and checks only they changed.
func TestVectorSet(t *testing.T) {
	var v Vector[int]
	const n = 5 * width
	for i := 0; i < n; i++ {
		v.Append(i, 1)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 200; k++ {
		i := rng.Intn(n)
		want[i] = -k
		v.Set(i, -k, 1)
	}
	for i := 0; i < n; i++ {
		if got := v.Get(i); got != want[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want[i])
		}
	}
}

// TestVectorRange checks index order, completeness, and early stop.
func TestVectorRange(t *testing.T) {
	var v Vector[int]
	const n = width*2 + 5
	for i := 0; i < n; i++ {
		v.Append(i, 1)
	}
	next := 0
	v.Range(func(i, x int) bool {
		if i != next || x != i {
			t.Fatalf("Range visited (%d, %d), want (%d, %d)", i, x, next, next)
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("Range visited %d elements, want %d", next, n)
	}
	seen := 0
	v.Range(func(i, x int) bool {
		seen++
		return i < 10
	})
	if seen != 11 { // f returns false on the 11th element (i == 10)
		t.Fatalf("early-stop Range visited %d elements, want 11", seen)
	}
	var empty Vector[int]
	empty.Range(func(int, int) bool { t.Fatal("Range on empty vector called f"); return false })
}

// TestVectorSnapshotIsolation is the persistence contract: copying the
// struct is the snapshot, and writes under fresh epochs on either side
// must not show through the other — in both directions, including
// appends past the snapshot's length.
func TestVectorSnapshotIsolation(t *testing.T) {
	var parent Vector[int]
	const n = width * 3
	for i := 0; i < n; i++ {
		parent.Append(i, 1)
	}
	child := parent // the snapshot

	// Writes on the parent under a fresh epoch.
	for i := 0; i < n; i += 7 {
		parent.Set(i, 1000+i, 2)
	}
	parent.Append(7777, 2)

	// Writes on the child under another fresh epoch.
	for i := 0; i < n; i += 5 {
		child.Set(i, 2000+i, 3)
	}

	for i := 0; i < n; i++ {
		wantP := i
		if i%7 == 0 {
			wantP = 1000 + i
		}
		if got := parent.Get(i); got != wantP {
			t.Fatalf("parent.Get(%d) = %d, want %d", i, got, wantP)
		}
		wantC := i
		if i%5 == 0 {
			wantC = 2000 + i
		}
		if got := child.Get(i); got != wantC {
			t.Fatalf("child.Get(%d) = %d, want %d", i, got, wantC)
		}
	}
	if parent.Len() != n+1 || parent.Get(n) != 7777 {
		t.Fatalf("parent append lost: len %d, last %d", parent.Len(), parent.Get(n))
	}
	if child.Len() != n {
		t.Fatalf("parent append leaked into child: len %d, want %d", child.Len(), n)
	}
}

// TestVectorEpochTransience pins the write-on-first-touch-per-epoch
// discipline: repeated writes under one epoch reuse the spine allocated
// by the first, so a write loop between snapshots is allocation-free
// after the first touch of each leaf.
func TestVectorEpochTransience(t *testing.T) {
	var v Vector[int]
	const n = width * 2
	for i := 0; i < n; i++ {
		v.Append(i, 1)
	}
	// First touch under epoch 2 privatizes the spine...
	v.Set(0, -1, 2)
	v.Set(n-1, -1, 2)
	// ...after which same-epoch writes must not allocate.
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			v.Set(i, i*3, 2)
		}
	})
	if allocs != 0 {
		t.Errorf("same-epoch write loop allocates %v times, want 0", allocs)
	}
	for i := 0; i < n; i++ {
		if got := v.Get(i); got != i*3 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*3)
		}
	}
}

// TestVectorManySnapshots interleaves snapshots and divergent writes
// across a chain of generations and verifies every generation still
// reads what it wrote — the multi-clone shape checkpoint stores produce.
func TestVectorManySnapshots(t *testing.T) {
	const n = width + 3
	var base Vector[int]
	for i := 0; i < n; i++ {
		base.Append(0, 1)
	}
	gens := make([]Vector[int], 10)
	for g := range gens {
		gens[g] = base // snapshot the same base ten times
		epoch := uint64(10 + g)
		for i := 0; i < n; i++ {
			gens[g].Set(i, (g+1)*100+i, epoch)
		}
	}
	for i := 0; i < n; i++ {
		if got := base.Get(i); got != 0 {
			t.Fatalf("base.Get(%d) = %d, want 0", i, got)
		}
	}
	for g := range gens {
		for i := 0; i < n; i++ {
			if got := gens[g].Get(i); got != (g+1)*100+i {
				t.Fatalf("gen %d Get(%d) = %d, want %d", g, i, got, (g+1)*100+i)
			}
		}
	}
}

// TestVectorPanics pins the slice-like bounds behavior.
func TestVectorPanics(t *testing.T) {
	var v Vector[int]
	v.Append(1, 1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"get-negative", func() { v.Get(-1) }},
		{"get-past-end", func() { v.Get(1) }},
		{"set-negative", func() { v.Set(-1, 0, 1) }},
		{"set-past-end", func() { v.Set(1, 0, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.f()
		})
	}
}

// TestEqualFunc checks EqualFunc against an element-wise reference on a
// vector, a snapshot of it, and divergent writes on either side —
// including writes that restore the original value (equal contents,
// unshared nodes).
func TestEqualFunc(t *testing.T) {
	eq := func(x, y int) bool { return x == y }
	var a Vector[int]
	const n = width*width + 5
	for i := 0; i < n; i++ {
		a.Append(i, 1)
	}
	b := a // snapshot: shares every node
	if !EqualFunc(&a, &b, eq) {
		t.Fatal("snapshot differs from its source")
	}
	calls := 0
	counting := func(x, y int) bool { calls++; return x == y }
	b.Set(n-1, -1, 2)
	if EqualFunc(&a, &b, counting) {
		t.Fatal("divergent write not seen")
	}
	if calls > width {
		t.Fatalf("compared %d elements; shared subtrees should be skipped", calls)
	}
	b.Set(n-1, n-1, 2) // same contents again, private spine
	if !EqualFunc(&a, &b, eq) {
		t.Fatal("restored value reported unequal")
	}
	b.Append(7, 2)
	if EqualFunc(&a, &b, eq) {
		t.Fatal("different lengths reported equal")
	}
	var e1, e2 Vector[int]
	if !EqualFunc(&e1, &e2, eq) {
		t.Fatal("empty vectors differ")
	}
}
