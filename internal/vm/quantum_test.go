package vm_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// eventLog is an observer that renders every event it sees, in order,
// and keeps each shared access's AtAccess coordinate.
type eventLog struct {
	lines    []string
	accesses []vm.Stop
}

func (l *eventLog) OnAccess(st *vm.State, tid int, loc vm.Loc, write bool, pc bytecode.PCRef, tInstr int64) {
	l.lines = append(l.lines, fmt.Sprintf("access t%d %+v w=%v %+v @%d", tid, loc, write, pc, tInstr))
	l.accesses = append(l.accesses, vm.Stop{On: vm.AtAccess, TID: tid, Instrs: tInstr})
}

func (l *eventLog) OnSync(st *vm.State, ev vm.SyncEvent) {
	l.lines = append(l.lines, fmt.Sprintf("sync %+v", ev))
}

func (l *eventLog) CloneObs() vm.Observer {
	return &eventLog{lines: append([]string(nil), l.lines...), accesses: append([]vm.Stop(nil), l.accesses...)}
}

// quantumOutcome is what TestQuantumMatchesSingleSteps compares of one
// run: its result, the gob bytes of the final state's wire form and the
// observer's event log.
type quantumOutcome struct {
	kind  vm.StopKind
	steps int64
	err   string
	state []byte
	log   *eventLog
}

// TestQuantumMatchesSingleSteps checks that the run loop's quanta are
// invisible: one long Run must end exactly like a sequence of Run(1)
// calls, each of which is a quantum of at most one instruction. Every
// built-in workload and the corpus at seed 1 are compiled without
// fusion (a fused sequence may carry Steps past an AtSteps target, and
// Run(1) never fuses), and each is run under three controllers and
// eight stops, one of each condition among them.
func TestQuantumMatchesSingleSteps(t *testing.T) {
	const budget = 400_000
	type target struct {
		name         string
		p            *bytecode.Program
		args, inputs []int64
	}
	var targets []target
	add := func(w *workloads.Workload) {
		p := bytecode.MustCompile(w.Source, w.Name, bytecode.Options{NoFuse: true})
		targets = append(targets, target{w.Name, p, w.Args, w.Inputs})
	}
	for _, w := range workloads.All() {
		add(w)
	}
	for _, p := range corpus.Suite(1, 4) {
		add(p.Workload)
	}
	ctls := []struct {
		name string
		mk   func() vm.Controller
	}{
		{"round-robin", func() vm.Controller { return vm.NewRoundRobin() }},
		{"sticky", func() vm.Controller { return vm.Sticky{} }},
		{"random", func() vm.Controller { return vm.NewRandom(7) }},
	}
	run := func(tg target, ctl vm.Controller, stop vm.Stop, nsym int, single bool) quantumOutcome {
		st := vm.NewState(tg.p, tg.args, tg.inputs)
		st.In.NSymbolic = nsym
		log := &eventLog{}
		st.Observers = append(st.Observers, log)
		m := vm.NewMachine(st, ctl)
		m.Stop = stop
		var res vm.RunResult
		if single {
			for res.Kind = vm.StopBudget; res.Kind == vm.StopBudget && res.Steps < budget; {
				r := m.Run(1)
				res.Kind, res.Err, res.Steps = r.Kind, r.Err, res.Steps+r.Steps
			}
		} else {
			res = m.Run(budget)
		}
		w, _ := vm.EncodeState(st, func(vm.Observer) (string, []byte, bool) { return "log", nil, true })
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(w); err != nil {
			t.Fatal(err)
		}
		o := quantumOutcome{kind: res.Kind, steps: res.Steps, state: b.Bytes(), log: log}
		if res.Err != nil {
			o.err = res.Err.Error()
		}
		return o
	}
	var runs, stopped int
	for _, tg := range targets {
		for _, c := range ctls {
			// The AtAccess target is the middle shared access of a probe run.
			var access vm.Stop
			if a := run(tg, c.mk(), vm.Stop{}, 0, false).log.accesses; len(a) > 0 {
				access = a[len(a)/2]
			}
			stops := []struct {
				name string
				stop vm.Stop
				nsym int
			}{
				{"none", vm.Stop{}, 0},
				{"steps-1", vm.Stop{On: vm.AtSteps, Steps: 1}, 0},
				{"steps-333", vm.Stop{On: vm.AtSteps, Steps: 333}, 0},
				{"global-0", vm.Stop{On: vm.AtObject, TID: -1, Space: vm.SpaceGlobal, Obj: 0}, 0},
				{"heap-t1", vm.Stop{On: vm.AtObject, TID: 1, Space: vm.SpaceHeap}, 0},
				{"fork", vm.Stop{On: vm.AtFork, TID: -1}, 2},
				{"fork-or-global-0", vm.Stop{On: vm.AtFork | vm.AtObject, TID: -1, Space: vm.SpaceGlobal, Obj: 0}, 2},
				{"access-mid", access, 0},
			}
			for _, s := range stops {
				quantum := run(tg, c.mk(), s.stop, s.nsym, false)
				single := run(tg, c.mk(), s.stop, s.nsym, true)
				runs++
				if quantum.kind == vm.StopBreak {
					stopped++
				}
				where := fmt.Sprintf("%s/%s/%s", tg.name, c.name, s.name)
				if quantum.kind != single.kind || quantum.steps != single.steps || quantum.err != single.err {
					t.Errorf("%s: Run(%d) gave %v after %d steps (%q), Run(1) calls %v after %d (%q)", where,
						budget, quantum.kind, quantum.steps, quantum.err, single.kind, single.steps, single.err)
					continue
				}
				if !bytes.Equal(quantum.state, single.state) {
					t.Errorf("%s: final state wire bytes differ", where)
				}
				if !reflect.DeepEqual(quantum.log.lines, single.log.lines) {
					t.Errorf("%s: event logs differ (%d events against %d)", where, len(quantum.log.lines), len(single.log.lines))
				}
			}
		}
	}
	t.Logf("%d programs: %d runs, %d ending at their stop", len(targets), runs, stopped)
	if stopped == 0 {
		t.Fatal("no run reached its stop: the check is vacuous")
	}
}
