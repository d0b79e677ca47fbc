// Package sched provides the scheduling primitives behind Portend's
// parallel exploration and classification engine: a bounded worker pool
// that fans indexed work items out across goroutines.
//
// The per-race analysis of §3.3–§3.4 is embarrassingly parallel — each
// (race, primary path, alternate schedule) triple is an independent
// replay — but Portend's verdicts must not depend on scheduling luck.
// The pool therefore never communicates results through channels or
// completion order: callers give every work item a fixed index, workers
// write into caller-owned index-addressed slots, and the caller merges
// the slots in index order. Determinism is a property of the merge, not
// of the execution.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism request: n < 1 (the "auto" default)
// becomes GOMAXPROCS, anything else is returned unchanged. A result of 1
// means sequential execution on the caller's goroutine.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns once all calls have completed. Items are claimed from a shared
// atomic cursor, so the pool stays busy even when item costs are skewed
// (one slow race next to many cheap ones).
//
// With workers <= 1 (or a single item) the calls run inline on the
// caller's goroutine in index order — the sequential engine and the
// parallel engine share one code path, which is what makes
// "-parallel 1 and -parallel N agree" a meaningful determinism check.
//
// fn must write its result into a caller-owned slot addressed by i; it
// must not touch another item's slot.
func Map(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
