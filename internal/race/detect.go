package race

import (
	"context"
	"math"

	"repro/internal/bytecode"
	"repro/internal/trace"
	"repro/internal/vm"
)

// DetectionResult is the outcome of running a program under the race
// detector: the distinct races, the recorded schedule trace (the input to
// classification), and the final state.
type DetectionResult struct {
	Prog    *bytecode.Program
	Reports []*Report
	Trace   *trace.Trace
	Run     vm.RunResult
	Final   *vm.State
}

// DetectConfig extends a detection run with classification-support
// hooks; the zero value is plain detection. Portend's design (§3.2,
// Algorithm 1) treats detection and classification as one pipeline over
// the same recorded schedule, so the detection pass can deposit the
// replay checkpoints classification will resume from — instead of the
// first classification rediscovering them with a full root replay.
type DetectConfig struct {
	// Extra observers are attached to the detection state after the
	// detector itself. They must be exactly the observers classification
	// replays run with (the classifier's access counter and predicate
	// observer): a snapshot is interchangeable with a replay state only
	// if it carries the same observer state for its prefix.
	Extra []vm.Observer

	// Snapshot, when non-nil, receives the running state at detection-
	// phase checkpoint points: the first clean park after each new race
	// cluster's detection, every SnapshotEvery completed instructions of
	// progress, and each position in At. The state is parked between
	// instructions with the detector detached (classification replays
	// never carry one), tr is the live — still recording — trace, and
	// decisions is the number of scheduling decisions consumed so far:
	// the replay position of the park (see trace.ReplayerAt). The
	// callback must treat the state as read-only and not retain it past
	// the call; depositing into a ckpt.Store clones it.
	Snapshot func(st *vm.State, tr *trace.Trace, decisions int)

	// SnapshotEvery is the initial periodic snapshot cadence in completed
	// instructions; <= 0 disables periodic snapshots (cluster-detection
	// snapshots still fire). The cadence doubles after every periodic
	// snapshot, so a trace of T instructions deposits O(log T) periodic
	// checkpoints — the nearest one below any point still lies within
	// half the replay it saves, while short traces never pay more than a
	// handful of state clones. Periodic snapshots are what let even the
	// trace's first race resume: its first racing access precedes every
	// cluster-detection point, so only cadence-deposited checkpoints can
	// lie before it.
	SnapshotEvery int64

	// At lists further checkpoint positions, ascending State.Steps
	// values: the run parks at the first clean point at or past each one
	// that the recording reaches and hands that state to Snapshot too. A
	// park at a position leaves the periodic cadence where it was. These
	// are the positions an earlier run of the same submission kept; the
	// trace and inputs fix every state, so a position names its state.
	At []int64
}

// Detect runs the program with the given concrete arguments and input log
// under the happens-before detector, recording the schedule. This is the
// paper's detection phase: "developers could run their existing test
// suites under Portend" (§3.1). The budget bounds the run (<0: unlimited).
func Detect(p *bytecode.Program, args, inputs []int64, budget int64) *DetectionResult {
	return DetectCtx(context.Background(), p, args, inputs, budget)
}

// DetectCtx is Detect with cancellation: when ctx is cancelled (or its
// deadline passes) mid-run, detection stops promptly and returns the
// races and partial trace observed so far; the Run result reports
// vm.StopCancelled.
func DetectCtx(ctx context.Context, p *bytecode.Program, args, inputs []int64, budget int64) *DetectionResult {
	return DetectWith(ctx, p, args, inputs, budget, DetectConfig{})
}

// DetectWith is DetectCtx extended with the checkpointing hooks of cfg.
// The recorded trace, the race reports, the stop result, and the final
// state are bit-identical to a plain DetectCtx run: snapshot parks only
// pause the machine between instructions, they never change what it
// executes.
func DetectWith(ctx context.Context, p *bytecode.Program, args, inputs []int64, budget int64, cfg DetectConfig) *DetectionResult {
	st := vm.NewState(p, args, inputs)
	det := NewDetector()
	st.Observers = append(st.Observers, det)
	st.Observers = append(st.Observers, cfg.Extra...)
	interrupt := vm.PollDone(ctx.Done())
	var (
		tr  *trace.Trace
		res vm.RunResult
	)
	if cfg.Snapshot == nil {
		tr, res = trace.RecordWith(st, vm.NewRoundRobin(), budget, interrupt)
	} else {
		tr, res = recordSnapshotting(st, det, budget, interrupt, cfg)
	}
	return &DetectionResult{
		Prog:    p,
		Reports: det.Reports(),
		Trace:   tr,
		Run:     res,
		Final:   st,
	}
}

// recordSnapshotting is trace.RecordWith interleaved with checkpoint
// deposits: the machine runs in segments separated by parks at which
// cfg.Snapshot receives the state.
//
// Parks happen only before non-synchronization instructions. At such a
// point no scheduling decision is pending: the decisions recorded so far
// are exactly the decisions a replay resumed from the parked state will
// have consumed, so the snapshot's replay position (len(t.Decisions)) is
// exact. A park before a sync op would instead sit between an
// already-recorded decision and the instruction it chose, and a machine
// resumed there would consult the controller again — off by one.
func recordSnapshotting(st *vm.State, det *Detector, budget int64, interrupt func() bool, cfg DetectConfig) (*trace.Trace, vm.RunResult) {
	t := trace.NewTraceFor(st)
	m := vm.NewMachine(st, trace.NewRecorder(vm.NewRoundRobin(), t))
	m.Interrupt = interrupt

	every := cfg.SnapshotEvery
	next := int64(math.MaxInt64)
	if every > 0 {
		next = every
	}
	at := cfg.At
	target := func() int64 {
		if len(at) > 0 && at[0] < next {
			return at[0]
		}
		return next
	}
	m.Stop = vm.Stop{On: vm.AtSteps, Steps: target()}
	cluster := false
	det.OnNew = func(*Report) { // park at the next clean point
		m.Stop.Steps = st.Steps
		cluster = true
	}
	defer func() { det.OnNew = nil }()

	remaining := budget
	var total int64
	for {
		res := m.Run(remaining)
		total += res.Steps
		if res.Kind != vm.StopBreak {
			res.Steps = total // report the whole recording, not the last segment
			return t, res
		}
		if remaining >= 0 {
			remaining -= res.Steps
		}
		for len(at) > 0 && at[0] <= st.Steps {
			at = at[1:]
		}
		// A cadence or cluster park moves the cadence; a park only at a
		// position does not, so the cadence parks of a run given
		// positions are those of a run without them.
		if every > 0 && (cluster || st.Steps >= next) {
			if st.Steps >= next {
				every *= 2 // geometric cadence: O(log T) periodic deposits
			}
			next = st.Steps + every
		}
		cluster = false
		m.Stop.Steps = target()
		snapshotParked(st, det, t, cfg)
	}
}

// snapshotParked hands the parked state to cfg.Snapshot with the
// detector detached: classification replays never run a detector, so a
// snapshot must not carry one either (it would be cloned into every
// resume and re-detect races the trace already reported).
func snapshotParked(st *vm.State, det *Detector, t *trace.Trace, cfg DetectConfig) {
	saved := st.Observers
	trimmed := make([]vm.Observer, 0, len(saved)-1)
	for _, o := range saved {
		if o != vm.Observer(det) {
			trimmed = append(trimmed, o)
		}
	}
	st.Observers = trimmed
	cfg.Snapshot(st, t, len(t.Decisions))
	st.Observers = saved
}

// FromExternal adapts a third-party race report (e.g. a ThreadSanitizer
// plugin trace, §3.1) into a Report the classifier accepts. The caller
// supplies the location and both access coordinates observed by the
// external tool.
func FromExternal(loc vm.Loc, first, second Access) *Report {
	return &Report{
		Key:       normKey(loc, first.PC, second.PC),
		Loc:       loc,
		First:     first,
		Second:    second,
		Instances: 1,
	}
}
