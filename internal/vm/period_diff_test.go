package vm_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// TestPeriodSkipMatchesFullBudget is the period skip's differential
// test: every built-in workload (as the Table 3 sweep runs it, plus the
// predicate-carrying ones as Table 2 does) and the corpus at seeds 1 and
// 6 is classified twice at width 1, once interpreting every enforcement
// to its budget and once with the skip, and every spin-tracked run must
// agree exactly — stop kind and steps, the gob bytes of the final
// State's wire form, the spin diagnosis of every thread, and the
// interned-constant tally. Along the way every configuration comparison
// the probe makes is checked against the codec (EncodeState equality
// with Steps and Instrs zeroed).
func TestPeriodSkipMatchesFullBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("classifies every workload and two corpus seeds twice")
	}
	type target struct {
		w     *workloads.Workload
		preds bool
	}
	var targets []target
	for _, w := range workloads.All() {
		targets = append(targets, target{w, false})
		if w.Predicates != nil {
			targets = append(targets, target{w, true})
		}
	}
	for _, seed := range []uint64{1, 6} {
		for _, p := range corpus.Suite(seed, 4) {
			targets = append(targets, target{p.Workload, false})
		}
	}
	var skippedRuns, timeouts int
	var probe vm.ProbeStats
	for _, tg := range targets {
		w := tg.w
		p := w.Compile()
		classify := func(skip bool) ([]vm.SpinRun, vm.ProbeStats) {
			get, restore := vm.RecordSpinRuns(skip)
			defer restore()
			opts := core.DefaultOptions()
			opts.Parallel = 1
			if tg.preds {
				opts.Predicates = w.Predicates(p)
			}
			core.Run(p, w.Args, w.Inputs, opts)
			return get()
		}
		full, _ := classify(false)
		fast, ps := classify(true)
		probe.Compares += ps.Compares
		probe.Same += ps.Same
		probe.Disagree += ps.Disagree
		if probe.First == "" && ps.First != "" {
			probe.First = w.Name + ": " + ps.First
		}
		if len(full) != len(fast) {
			t.Errorf("%s: %d spin-tracked runs interpreted, %d with the skip", w.Name, len(full), len(fast))
			continue
		}
		for i, f := range full {
			g := fast[i]
			if f.Skipped != 0 {
				t.Fatalf("%s run %d: skipped %d steps with the skip off", w.Name, i, f.Skipped)
			}
			if f.Res.Kind == vm.StopBudget {
				timeouts++
			}
			if g.Skipped > 0 {
				skippedRuns++
			}
			if f.Budget != g.Budget || !reflect.DeepEqual(f.Res, g.Res) {
				t.Errorf("%s run %d: result %+v interpreted, %+v skipped", w.Name, i, f.Res, g.Res)
			}
			if string(f.State) != string(g.State) {
				t.Errorf("%s run %d: final state wire bytes differ (skipped %d steps)", w.Name, i, g.Skipped)
			}
			if !reflect.DeepEqual(f.Diags, g.Diags) {
				t.Errorf("%s run %d: spin diagnoses differ\ninterpreted %+v\nskipped     %+v", w.Name, i, f.Diags, g.Diags)
			}
			if f.Interned != g.Interned {
				t.Errorf("%s run %d: InternedConsts %d interpreted, %d skipped", w.Name, i, f.Interned, g.Interned)
			}
		}
	}
	t.Logf("%d targets: %d timeouts, %d runs fast-forwarded; %d probe comparisons, %d recurrences",
		len(targets), timeouts, skippedRuns, probe.Compares, probe.Same)
	if skippedRuns == 0 || probe.Same == 0 {
		t.Fatal("the skip never engaged: the differential test is vacuous")
	}
	if probe.Disagree != 0 {
		t.Errorf("sameConfig disagreed with EncodeState equality on %d of %d comparisons; first: %s",
			probe.Disagree, probe.Compares, probe.First)
	}
}
