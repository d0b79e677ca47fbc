package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/expr"
)

func x() expr.Expr        { return expr.NewSym("x") }
func c(v int64) expr.Expr { return expr.NewConst(v) }

func TestCacheHitReturnsIdenticalAnswer(t *testing.T) {
	cache := NewCache(0)
	q := []expr.Expr{expr.Gt(x(), c(3)), expr.Lt(x(), c(10))}
	hints := expr.Assignment{"x": 5}

	fresh := New(Options{})
	m1, r1 := fresh.Solve(q, hints)

	s := New(Options{})
	s.Cache = cache
	m2, r2 := s.Solve(q, hints)
	m3, r3 := s.Solve(q, hints)

	if r1 != r2 || r2 != r3 {
		t.Fatalf("results differ: %v %v %v", r1, r2, r3)
	}
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(m2, m3) {
		t.Fatalf("models differ: %v %v %v", m1, m2, m3)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", cache.Hits(), cache.Misses())
	}
	if s.CacheHits() != 1 {
		t.Errorf("solver-local cache hits = %d, want 1", s.CacheHits())
	}
	// The cached model is a private copy: mutating one answer must not
	// poison the next.
	m2["x"] = -999
	m4, _ := s.Solve(q, hints)
	if m4["x"] == -999 {
		t.Fatal("cached model aliased into caller results")
	}
}

func TestCacheKeyDistinguishesHints(t *testing.T) {
	cache := NewCache(0)
	s := New(Options{})
	s.Cache = cache
	q := []expr.Expr{expr.Gt(x(), c(0)), expr.Lt(x(), c(100))}

	m1, _ := s.Solve(q, expr.Assignment{"x": 7})
	m2, _ := s.Solve(q, expr.Assignment{"x": 42})
	if cache.Hits() != 0 {
		t.Errorf("different hints must not share a cache entry (hits = %d)", cache.Hits())
	}
	if m1["x"] != 7 || m2["x"] != 42 {
		t.Errorf("hint-led models wrong: %v %v", m1, m2)
	}
	// Hints of variables absent from the constraints are irrelevant and
	// must not fragment the cache.
	s.Solve(q, expr.Assignment{"x": 7, "unrelated": 1})
	if cache.Hits() != 1 {
		t.Errorf("irrelevant hint fragmented the cache (hits = %d)", cache.Hits())
	}
}

func TestCacheUnsatAndShared(t *testing.T) {
	cache := NewCache(0)
	q := []expr.Expr{expr.Gt(x(), c(5)), expr.Lt(x(), c(3))}

	var wg sync.WaitGroup
	results := make([]Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := New(Options{})
			s.Cache = cache
			_, results[i] = s.Solve(q, nil)
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		if r != Unsat {
			t.Fatalf("expected Unsat, got %v", r)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache len = %d, want 1", cache.Len())
	}
}

func TestCacheSkipsInterruptedQueries(t *testing.T) {
	cache := NewCache(0)
	s := New(Options{})
	s.Cache = cache
	s.Interrupt = func() bool { return true }
	// A two-variable nonlinear query with no candidate solution keeps the
	// backtracking search running long enough to hit the interrupt poll.
	y := expr.NewSym("y")
	q := []expr.Expr{expr.Eq(expr.NewBinary(expr.OpMul, x(), y), c((1<<40)+3))}
	if _, r := s.Solve(q, nil); r != Unknown {
		t.Fatalf("interrupted query = %v, want Unknown", r)
	}
	if cache.Len() != 0 {
		t.Fatal("interrupted (cancelled) result was cached")
	}

	// The same query on a healthy solver must compute fresh and cache.
	s2 := New(Options{})
	s2.Cache = cache
	if _, r := s2.Solve(q, nil); r == Sat {
		// fine either way; the point is it ran
		_ = r
	}
	if cache.Len() != 1 {
		t.Fatalf("healthy re-run not cached (len = %d)", cache.Len())
	}
}

func TestCacheCapacity(t *testing.T) {
	cache := NewCache(2)
	s := New(Options{})
	s.Cache = cache
	for i := 0; i < 5; i++ {
		s.Solve([]expr.Expr{expr.Eq(x(), c(int64(i)))}, nil)
	}
	if cache.Len() != 2 {
		t.Errorf("cache len = %d, want cap 2", cache.Len())
	}
	if cache.Evictions() != 3 {
		t.Errorf("evictions = %d, want 3", cache.Evictions())
	}
	// LRU: the most recent queries survive, the oldest were evicted.
	h0 := cache.Hits()
	s.Solve([]expr.Expr{expr.Eq(x(), c(4))}, nil)
	if cache.Hits() != h0+1 {
		t.Error("most recent entry was evicted")
	}
	m0 := cache.Misses()
	s.Solve([]expr.Expr{expr.Eq(x(), c(0))}, nil)
	if cache.Misses() != m0+1 {
		t.Error("least recently used entry unexpectedly survived")
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	cache := NewCache(2)
	s := New(Options{})
	s.Cache = cache
	qa := []expr.Expr{expr.Eq(x(), c(1))}
	qb := []expr.Expr{expr.Eq(x(), c(2))}
	qc := []expr.Expr{expr.Eq(x(), c(3))}
	s.Solve(qa, nil)
	s.Solve(qb, nil)
	s.Solve(qa, nil) // touch qa: qb becomes least recently used
	s.Solve(qc, nil) // evicts qb
	h0 := cache.Hits()
	s.Solve(qa, nil)
	if cache.Hits() != h0+1 {
		t.Error("touched entry was evicted despite being recently used")
	}
	m0 := cache.Misses()
	s.Solve(qb, nil)
	if cache.Misses() != m0+1 {
		t.Error("untouched entry survived over the touched one")
	}
}

// TestQueryHashAllocFree is the regression guard of the key-building hot
// path: rendering keys must never return to allocating (the old
// implementation built a string per lookup).
func TestQueryHashAllocFree(t *testing.T) {
	flat := []expr.Expr{
		expr.Gt(x(), c(3)),
		expr.Lt(expr.Add(x(), expr.NewSym("y")), c(4000)),
		expr.Ne(expr.NewSym("y"), c(0)),
	}
	names := []string{"x", "y"}
	hints := expr.Assignment{"x": 5, "y": 7}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sink += queryHash(flat, names, hints)
	})
	if allocs != 0 {
		t.Errorf("queryHash allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

func TestCacheKeyCanonicalOrder(t *testing.T) {
	// Nested top-level ANDs flatten to the same conjunct list as the
	// split form, so the two spellings share one entry.
	cache := NewCache(0)
	s := New(Options{})
	s.Cache = cache
	a, b := expr.Gt(x(), c(1)), expr.Lt(x(), c(9))
	s.Solve([]expr.Expr{expr.NewBinary(expr.OpLAnd, a, b)}, nil)
	s.Solve([]expr.Expr{a, b}, nil)
	if cache.Hits() != 1 || cache.Len() != 1 {
		t.Errorf("flattened forms did not share an entry: hits=%d len=%d", cache.Hits(), cache.Len())
	}
	// Reversed conjunct order is a different computation and must not
	// collapse onto the same entry.
	s.Solve([]expr.Expr{b, a}, nil)
	if cache.Len() != 2 {
		t.Errorf("order-reversed query unexpectedly shared an entry (len=%d)", cache.Len())
	}
}

func BenchmarkSolveCached(b *testing.B) {
	qs := make([][]expr.Expr, 16)
	for i := range qs {
		qs[i] = []expr.Expr{expr.Gt(x(), c(int64(i))), expr.Lt(x(), c(int64(i)+50))}
	}
	b.Run("cold", func(b *testing.B) {
		s := New(Options{})
		for i := 0; i < b.N; i++ {
			s.Solve(qs[i%len(qs)], nil)
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := New(Options{})
		s.Cache = NewCache(0)
		for i := 0; i < b.N; i++ {
			s.Solve(qs[i%len(qs)], nil)
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debugging edits

// TestCacheImportPastCapacity restores an export larger than the cache
// (a tier written by a cache with a higher bound): the cache keeps its
// own capacity, keeps the most recently used entries in their exported
// LRU order, drops the oldest, and carries the lookup counters over.
func TestCacheImportPastCapacity(t *testing.T) {
	const extra = 5
	n := DefaultCacheSize + extra
	query := func(i int) []expr.Expr { return []expr.Expr{expr.Eq(x(), c(int64(i)))} }

	big := NewCache(n)
	s := New(Options{})
	s.Cache = big
	for i := 0; i < n; i++ {
		s.Solve(query(i), nil)
	}
	exp := big.Export()
	if len(exp.Entries) != n {
		t.Fatalf("export holds %d entries, want %d", len(exp.Entries), n)
	}
	exp.Hits, exp.Misses, exp.Evictions = 11, 22, 33

	cache := NewCache(0)
	cache.Import(exp)
	if got := cache.Len(); got != DefaultCacheSize {
		t.Fatalf("imported len = %d, want DefaultCacheSize %d", got, DefaultCacheSize)
	}
	if cache.Hits() != 11 || cache.Misses() != 22 || cache.Evictions() != 33 {
		t.Errorf("counters = %d/%d/%d hits/misses/evictions, want 11/22/33",
			cache.Hits(), cache.Misses(), cache.Evictions())
	}
	got := cache.Export().Entries
	for i := range got {
		if !reflect.DeepEqual(got[i], exp.Entries[i]) {
			t.Fatalf("entry %d out of LRU order after import: got %v, want %v", i, got[i].Flat, exp.Entries[i].Flat)
		}
	}

	s.Cache = cache
	s.Solve(query(n-1), nil)
	if cache.Hits() != 12 {
		t.Error("newest exported entry did not survive the import")
	}
	s.Solve(query(0), nil)
	if cache.Misses() != 23 {
		t.Error("oldest exported entry survived an import past capacity")
	}
}
