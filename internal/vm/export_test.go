package vm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// SpinRun is what the period-skip differential test records about one
// spin-tracked Machine.Run.
type SpinRun struct {
	Budget   int64
	Res      RunResult
	State    []byte          // gob bytes of EncodeState after the run
	Diags    []SpinDiagnosis // DiagnoseSpin of every thread
	Interned int64           // the run's InternedConsts tally
	Skipped  int64           // steps the run fast-forwarded
}

// ProbeStats summarizes the full configuration comparisons the probe
// made while recording, checked against the codec.
type ProbeStats struct {
	Compares, Same int
	// Disagree counts comparisons where sameConfig and equality of the
	// EncodeState gob bytes (counters zeroed) differ; First describes the
	// first one.
	Disagree int
	First    string
}

// RecordSpinRuns turns the period skip on or off and records every
// spin-tracked Run plus every probe comparison until restore is called.
// The hooks are package globals: callers must not run machines
// concurrently from other tests meanwhile.
func RecordSpinRuns(skip bool) (get func() ([]SpinRun, ProbeStats), restore func()) {
	var mu sync.Mutex
	var runs []SpinRun
	var ps ProbeStats
	savedSkip := periodSkip
	periodSkip = skip
	spinRunHook = func(m *Machine, budget int64, res RunResult) {
		r := SpinRun{Budget: budget, Res: res, State: wireBytes(m.St, false),
			Interned: m.internHits, Skipped: m.skippedSteps}
		for tid := range m.St.Threads {
			r.Diags = append(r.Diags, m.DiagnoseSpin(tid))
		}
		mu.Lock()
		runs = append(runs, r)
		mu.Unlock()
	}
	probeHook = func(snap, cur *State, same bool) {
		codecSame := bytes.Equal(wireBytes(snap, true), wireBytes(cur, true))
		mu.Lock()
		defer mu.Unlock()
		ps.Compares++
		if same {
			ps.Same++
		}
		if same != codecSame {
			ps.Disagree++
			if ps.First == "" {
				ps.First = fmt.Sprintf("sameConfig=%v codec=%v at steps %d vs %d", same, codecSame, snap.Steps, cur.Steps)
			}
		}
	}
	get = func() ([]SpinRun, ProbeStats) {
		mu.Lock()
		defer mu.Unlock()
		return append([]SpinRun(nil), runs...), ps
	}
	restore = func() {
		periodSkip = savedSkip
		spinRunHook, probeHook = nil, nil
	}
	return get, restore
}

// wireBytes gob-encodes st's wire form, optionally with the counters
// the period configuration excludes (Steps, Thread.Instrs) zeroed.
func wireBytes(st *State, zeroCounters bool) []byte {
	// Observers (a predicate run's) are recorded by type only: runs
	// carrying them are never probed, so only their presence matters.
	w, _ := EncodeState(st, func(o Observer) (string, []byte, bool) {
		return fmt.Sprintf("%T", o), nil, true
	})
	if zeroCounters {
		w.Steps = 0
		for i := range w.Threads {
			w.Threads[i].Instrs = 0
		}
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(w); err != nil {
		panic(err)
	}
	return b.Bytes()
}
