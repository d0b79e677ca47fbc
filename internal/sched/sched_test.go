package sched

import (
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-3) < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", Workers(-3))
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatalf("Workers must pass explicit requests through")
	}
}

func TestMapCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 1000
		hits := make([]atomic.Int64, n)
		Map(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestMapSequentialRunsInOrder(t *testing.T) {
	var order []int
	Map(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential Map out of order: %v", order)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	Map(4, 0, func(i int) { t.Fatal("fn called for empty Map") })
}
