package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// renderShared renders st's shared memory as one string: every global
// cell and heap cell through expr.String, each heap block with its freed
// flag. That is MemoryFingerprint without its thread-local tail, which
// this renders from the exported thread fields and cuts off.
func renderShared(t *testing.T, st *vm.State) string {
	var tail strings.Builder
	for _, th := range st.Threads {
		fmt.Fprintf(&tail, "t%d(%s):", th.ID, th.Status)
		for _, f := range th.Frames {
			for _, l := range f.Locals {
				tail.WriteString(l.String())
				tail.WriteByte(',')
			}
		}
	}
	full := st.MemoryFingerprint()
	shared, ok := strings.CutSuffix(full, tail.String())
	if !ok {
		t.Errorf("MemoryFingerprint %q does not end with the thread rendering %q", full, tail.String())
	}
	return shared
}

// TestSameSharedMemoryAgreesWithRendering pins the post-race criterion,
// vm.SameSharedMemory, to a rendering of shared memory on every
// (post-race, alternate) pair the engine compares while classifying the
// built-in workloads, the corpus at seeds 1 and 6, and the long-trace
// shapes. A rendering could map two distinct expressions to one string,
// and a structural comparison would then flip a statesDiffer answer; on
// these programs the two must never disagree.
func TestSameSharedMemoryAgreesWithRendering(t *testing.T) {
	// At width 1 the engine calls the hook on this goroutine.
	var pairs, differ, disagree int
	var first string
	core.SetPostRaceHook(t, func(post, alt *vm.State, same bool) {
		rp, ra := renderShared(t, post), renderShared(t, alt)
		pairs++
		if !same {
			differ++
		}
		if same != (rp == ra) {
			if disagree++; disagree == 1 {
				first = fmt.Sprintf("same=%v\npost: %s\nalt:  %s", same, rp, ra)
			}
		}
	})

	progs := append([]*workloads.Workload{}, workloads.All()...)
	for _, seed := range []uint64{1, 6} {
		for _, cp := range corpus.Suite(seed, corpus.DefaultPerFamily) {
			progs = append(progs, cp.Workload)
		}
	}
	progs = append(progs,
		&workloads.Workload{Name: "many-race", Source: workloads.ManyRaceSource(24, 8000), Inputs: []int64{3}},
		&workloads.Workload{Name: "sym-prefix", Source: workloads.SymPrefixRaceSource(16, 6, 6000), Inputs: []int64{3}},
		&workloads.Workload{Name: "static-prune-deep", Source: workloads.StaticPruneSource(6, 2, 4000), Inputs: []int64{100}},
		&workloads.Workload{Name: "static-prune-wide", Source: workloads.StaticPruneSource(3, 4, 4000), Inputs: []int64{100}},
		&workloads.Workload{Name: "fig9-scale", Source: workloads.ScaleSource(400, 20), Inputs: []int64{3}},
	)
	opts := core.DefaultOptions()
	opts.Parallel = 1
	for _, w := range progs {
		core.Run(w.Compile(), w.Args, w.Inputs, opts)
	}

	t.Logf("%d programs, %d post-race pairs, %d with differing shared memory", len(progs), pairs, differ)
	if disagree > 0 {
		t.Errorf("SameSharedMemory disagrees with the rendering on %d of %d pairs; first:\n%s", disagree, pairs, first)
	}
	if differ == 0 || differ == pairs {
		t.Errorf("%d of %d pairs differ: the check needs both answers", differ, pairs)
	}
}
