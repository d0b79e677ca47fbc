package portend

import (
	"sort"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/vm"
)

// Class is the paper's four-category race taxonomy (Fig 1), using the
// paper's short names; the string values double as the JSON encoding.
type Class string

// Race classes, ordered by triage priority.
const (
	// SpecViolated: at least one ordering violates the specification
	// (crash, deadlock, hang, memory error, or a semantic predicate).
	SpecViolated Class = "specViol"
	// OutputDiffers: the orderings can produce different output.
	OutputDiffers Class = "outDiff"
	// KWitnessHarmless: harmless for k path-schedule witnesses.
	KWitnessHarmless Class = "k-witness"
	// SingleOrdering: only one ordering is possible (ad-hoc sync).
	SingleOrdering Class = "singleOrd"
)

// Rank orders classes by triage priority — the order a developer should
// inspect them (§1): specViol first, singleOrd last.
func (c Class) Rank() int {
	switch c {
	case SpecViolated:
		return 0
	case OutputDiffers:
		return 1
	case KWitnessHarmless:
		return 2
	case SingleOrdering:
		return 3
	}
	return 4
}

// Consequence refines SpecViolated verdicts (Table 2). Empty for the
// other classes.
type Consequence string

// Consequence kinds.
const (
	ConsDeadlock Consequence = "deadlock"
	ConsCrash    Consequence = "crash"
	ConsHang     Consequence = "hang"
	ConsSemantic Consequence = "semantic"
)

// AccessInfo is one side of a race.
type AccessInfo struct {
	Thread int  `json:"thread"`
	Write  bool `json:"write"`
	Line   int  `json:"line"`
}

// RaceInfo identifies a distinct race: the stable report ID, the racy
// object, both accesses, and how many dynamic instances were observed.
type RaceInfo struct {
	ID        string     `json:"id"`
	Object    string     `json:"object"`
	First     AccessInfo `json:"first"`
	Second    AccessInfo `json:"second"`
	Instances int        `json:"instances"`
}

// OutputDivergence is the evidence attached to an outDiff verdict: where
// the two orderings' outputs first differ (§3.6). Index is -1 when the
// orderings produced different record counts.
type OutputDivergence struct {
	Index          int    `json:"index"`
	Primary        string `json:"primary,omitempty"`
	Alternate      string `json:"alternate,omitempty"`
	PrimaryCount   int    `json:"primaryCount,omitempty"`
	AlternateCount int    `json:"alternateCount,omitempty"`
}

// Stats instruments one classification (Fig 9's axes, plus the engine's
// reuse and truncation accounting).
type Stats struct {
	Preemptions   int `json:"preemptions"`
	Branches      int `json:"branches"`
	SolverQueries int `json:"solverQueries"`
	PrimaryPaths  int `json:"primaryPaths"`
	Alternates    int `json:"alternates"`

	// CheckpointHits counts replays and multi-path explorations that
	// resumed from the shared checkpoint store — populated by the
	// detection pass (detection-point and periodic snapshots) and by
	// earlier classification replays — instead of the program's initial
	// state. SolverCacheHits counts solver queries answered from the
	// shared memo. Both depend on what earlier (possibly concurrent) work
	// cached, so unlike the verdict itself they may vary between runs of
	// different parallelism.
	CheckpointHits  int `json:"checkpointHits"`
	SolverCacheHits int `json:"solverCacheHits"`

	// TruncatedPaths counts multi-path exploration the engine's caps
	// discarded (dropped forks plus abandoned worklist items). When it is
	// non-zero, a k-witness verdict's coverage is narrower than the
	// configured Mp×Ma suggests.
	TruncatedPaths int `json:"truncatedPaths,omitempty"`

	// FusedOps counts superinstructions the interpreter executed for
	// this classification (each covers several original instructions);
	// InternedConsts counts constants served from the expression intern
	// table without allocating. Both are throughput accounting: like
	// SolverQueries they may vary with pool width, never the verdict.
	FusedOps       int64 `json:"fusedOps,omitempty"`
	InternedConsts int64 `json:"internedConsts,omitempty"`

	// SkippedSteps counts alternate-enforcement instructions the
	// interpreter fast-forwarded over a proven period instead of
	// interpreting them. Non-zero means a timeout verdict's budget was
	// proven exhausted rather than executed; the verdict is the same
	// either way.
	SkippedSteps int64 `json:"skippedSteps,omitempty"`

	// CloneAllocs and CloneBytes meter the copy-on-write state snapshots
	// this classification took (checkpoint deposits, enforcement forks,
	// exploration siblings): allocations and bytes spent on Clone itself,
	// measured rather than modeled. Throughput accounting like FusedOps —
	// varies with pool width, never the verdict.
	CloneAllocs int64 `json:"cloneAllocs,omitempty"`
	CloneBytes  int64 `json:"cloneBytes,omitempty"`

	// SolverCacheEvictions counts entries the run-wide solver memo
	// evicted (least-recently-used) while this race classified — a cache
	// pressure indicator for tuning, attributed to whichever race was
	// being timed when the eviction happened.
	SolverCacheEvictions int `json:"solverCacheEvictions,omitempty"`

	// PrunedSchedules counts exploration worklist items the static
	// pre-analysis proved inert for this race (no reachable access to the
	// racy object, no reachable symbolic branch) and skipped without
	// running; PathItemsRun counts the items that did run. The prune is
	// verdict-preserving — it shifts only these work counters.
	PrunedSchedules int `json:"prunedSchedules,omitempty"`
	PathItemsRun    int `json:"pathItemsRun,omitempty"`

	Duration time.Duration `json:"durationNs"`
}

// Verdict is the classification of one race. The zero Verdict (as seen
// alongside a non-nil error while ranging an Analyze sequence) is not a
// valid classification.
type Verdict struct {
	Race         RaceInfo          `json:"race"`
	Class        Class             `json:"class"`
	Consequence  Consequence       `json:"consequence,omitempty"`
	Detail       string            `json:"detail,omitempty"`
	K            int               `json:"k,omitempty"`
	StatesDiffer bool              `json:"statesDiffer"`
	OutputDiff   *OutputDivergence `json:"outputDiff,omitempty"`
	Stats        Stats             `json:"stats"`

	prog *bytecode.Program
	raw  *core.Verdict
}

// String renders the one-line summary (e.g. "specViol(crash: ...)").
func (v Verdict) String() string {
	if v.raw == nil {
		return "invalid"
	}
	return v.raw.String()
}

// DebugReport renders the full debugging-aid report of §3.6 (Fig 6): the
// race coordinates, the classification, the consequence, and the
// output-divergence evidence when present. Rendering happens on demand —
// consumers that never ask for the report (JSON mode, triage listings)
// do not pay for it.
func (v Verdict) DebugReport() string {
	if v.raw == nil {
		return ""
	}
	return v.raw.Report(v.prog)
}

// Raw exposes the engine's verdict. It is the module-internal escape
// hatch for harnesses under internal/ (the evaluation suite, benchmarks);
// its type lives in an internal package and carries no stability promise.
func (v Verdict) Raw() *core.Verdict { return v.raw }

// newVerdict converts an engine verdict into the public shape, retaining
// the program so DebugReport can render against it lazily.
func newVerdict(cv *core.Verdict, prog *bytecode.Program) Verdict {
	rep := cv.Race
	object := "heap object"
	if rep.Key.Space == vm.SpaceGlobal {
		object = prog.Globals[rep.Key.Obj].Name
	}
	v := Verdict{
		Race: RaceInfo{
			ID:        rep.ID(),
			Object:    object,
			First:     AccessInfo{Thread: rep.First.TID, Write: rep.First.Write, Line: int(rep.First.PC.Line)},
			Second:    AccessInfo{Thread: rep.Second.TID, Write: rep.Second.Write, Line: int(rep.Second.PC.Line)},
			Instances: rep.Instances,
		},
		Class:        Class(cv.Class.String()),
		Detail:       cv.Detail,
		StatesDiffer: cv.StatesDiffer,
		Stats: Stats{
			Preemptions:          cv.Stats.Preemptions,
			Branches:             cv.Stats.Branches,
			SolverQueries:        cv.Stats.SolverQueries,
			PrimaryPaths:         cv.Stats.PrimaryPaths,
			Alternates:           cv.Stats.Alternates,
			CheckpointHits:       cv.Stats.CheckpointHits,
			SolverCacheHits:      cv.Stats.SolverCacheHits,
			TruncatedPaths:       cv.Stats.TruncatedPaths,
			FusedOps:             cv.Stats.FusedOps,
			InternedConsts:       cv.Stats.InternedConsts,
			SkippedSteps:         cv.Stats.SkippedSteps,
			CloneAllocs:          cv.Stats.CloneAllocs,
			CloneBytes:           cv.Stats.CloneBytes,
			SolverCacheEvictions: cv.Stats.SolverCacheEvictions,
			PrunedSchedules:      cv.Stats.PrunedSchedules,
			PathItemsRun:         cv.Stats.PathItemsRun,
			Duration:             cv.Stats.Duration,
		},
		prog: prog,
		raw:  cv,
	}
	if cv.Class == core.SpecViolated {
		v.Consequence = Consequence(cv.Consequence.String())
	}
	if cv.Class == core.KWitnessHarmless {
		v.K = cv.K
	}
	if d := cv.OutputDiff; d != nil {
		v.OutputDiff = &OutputDivergence{
			Index:          d.Index,
			Primary:        d.Primary,
			Alternate:      d.Altern,
			PrimaryCount:   d.PrimaryN,
			AlternateCount: d.AltN,
		}
	}
	return v
}

// Report is the batched outcome of AnalyzeAll: every verdict in
// deterministic detection order, plus per-race classification failures.
type Report struct {
	Target    string    `json:"target"`
	Races     int       `json:"races"`
	Instances int       `json:"instances"`
	Verdicts  []Verdict `json:"verdicts"`
	Errors    []string  `json:"errors,omitempty"`

	res *core.Result
}

// ByClass groups the verdicts by class.
func (r *Report) ByClass() map[Class][]Verdict {
	m := map[Class][]Verdict{}
	for _, v := range r.Verdicts {
		m[v.Class] = append(m[v.Class], v)
	}
	return m
}

// Triage returns the verdicts ordered by harmfulness (specViol first,
// singleOrd last), stable within a class.
func (r *Report) Triage() []Verdict {
	out := append([]Verdict(nil), r.Verdicts...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Class.Rank() < out[j].Class.Rank()
	})
	return out
}

// Raw exposes the engine's result (detection reports, trace, final
// state). Module-internal escape hatch, like Verdict.Raw.
func (r *Report) Raw() *core.Result { return r.res }

// WhatIfReport answers "is it safe to remove this synchronization?"
// (§5.1): the races that exist only once the designated synchronization
// is removed, with their classifications.
type WhatIfReport struct {
	Target       string    `json:"target"`
	RemovedLines []int     `json:"removedLines"`
	NewRaces     []Verdict `json:"newRaces"`
	// All is the full analysis of the modified program; NewRaces is the
	// subset absent from the unmodified program.
	All *Report `json:"all"`
}

// KeepSync reports the paper's §5.1 recommendation: true when removing
// the synchronization induces at least one specification-violating race.
func (w *WhatIfReport) KeepSync() bool {
	for _, v := range w.NewRaces {
		if v.Class == SpecViolated {
			return true
		}
	}
	return false
}
