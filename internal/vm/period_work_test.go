package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/vm"
)

// TestPeriodSkipInterpretsUnderOnePeriodAfterSkip pins the work a
// fast-forwarded enforcement still interprets over the Table 3 sweep at
// width 1: the stretch before the recurrence, one recorded period and a
// remainder under one period, about 95,000 steps in all. The bound is
// far below the ~1.44M steps that interpreting two spin windows per
// ticking thread after each skip would take.
func TestPeriodSkipInterpretsUnderOnePeriodAfterSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("classifies the Table 3 sweep")
	}
	get, restore := vm.RecordSpinRuns(true)
	defer restore()
	opts := core.DefaultOptions()
	opts.Parallel = 1
	eval.RunSuite(opts)
	runs, _ := get()
	var skipped int
	var interpreted int64
	for _, r := range runs {
		if r.Skipped > 0 {
			skipped++
			interpreted += r.Res.Steps - r.Skipped
		}
	}
	t.Logf("%d spin-tracked runs, %d fast-forwarded, interpreting %d steps", len(runs), skipped, interpreted)
	if skipped < 49 {
		t.Errorf("%d runs fast-forwarded, want at least 49 (one per Table 3 timeout)", skipped)
	}
	if interpreted >= 200_000 {
		t.Errorf("fast-forwarded runs interpreted %d steps, want under 200,000", interpreted)
	}
}
