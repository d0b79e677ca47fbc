package portend

import (
	"repro/internal/sa"
)

// LintSeverity mirrors the static pass's diagnostic severities.
const (
	LintError   = sa.SeverityError   // certain runtime fault if the site executes
	LintWarning = sa.SeverityWarning // suspicious but not certainly fatal
)

// LintFinding is one diagnostic from the static pre-analysis.
type LintFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Fn       string `json:"fn"`
	Line     int    `json:"line"`
	Msg      string `json:"msg"`
}

// LintReport is the outcome of the static pre-analysis (internal/sa) of
// one target: race-pair candidates with their locksets, statically
// race-free objects, and lint diagnostics. The underlying artifact is
// deterministic — linting the same program any number of times yields
// byte-identical JSON.
type LintReport struct {
	Target string `json:"target"`

	// RaceFree means no candidate race pair survived the static pass:
	// every pair of shared accesses is provably single-threaded, ordered
	// by spawn structure, or protected by a common lock. The dynamic
	// detector cannot report a race on such a program.
	RaceFree bool `json:"raceFree"`

	// Candidates counts statically possible race pairs; RaceFreeObjects
	// and EscapingObjects summarize per-object escape results.
	Candidates      int      `json:"candidates"`
	RaceFreeObjects []string `json:"raceFreeObjects,omitempty"`
	EscapingObjects []string `json:"escapingObjects,omitempty"`

	Findings []LintFinding `json:"findings,omitempty"`

	facts    *sa.Facts
	compiled Target
}

// HasErrors reports whether any error-severity finding fired — a
// synchronization operation the analysis proves faults whenever it
// executes (double-lock, unlock of an unheld mutex, wait without its
// mutex).
func (r *LintReport) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == LintError {
			return true
		}
	}
	return false
}

// String renders the human-readable diagnostics (the -lint output).
func (r *LintReport) String() string { return r.facts.Render() }

// Artifact returns the canonical byte-stable static-analysis artifact
// (schema portend-sa/1): full candidate pairs with locksets, lints, and
// per-object results as indented JSON.
func (r *LintReport) Artifact() []byte { return r.facts.Encode() }

// Facts exposes the engine's static-analysis artifact. It is the
// module-internal escape hatch for harnesses under internal/ (the
// service threads it into the engine's pruning); its type lives in an
// internal package and carries no stability promise.
func (r *LintReport) Facts() *sa.Facts { return r.facts }

// Compiled returns the linted target as a compiled one: analyzing it
// runs the program this report analyzed, with the target's arguments,
// inputs and workload predicates, without parsing or compiling again.
func (r *LintReport) Compiled() Target { return r.compiled }

// Lint runs the static pre-analysis on a target without executing it:
// per-function control flow, interprocedural locksets, may-happen-in-
// parallel from the spawn structure, and shared-object escape analysis.
// It is the analysis the engine's verdict-preserving schedule pruning
// and the service's admission fast path consume; here it surfaces the
// same facts as diagnostics.
func Lint(t Target) (*LintReport, error) {
	r, err := t.resolve()
	if err != nil {
		return nil, err
	}
	facts := sa.Analyze(r.prog)
	rep := &LintReport{
		Target:          t.Name(),
		RaceFree:        facts.RaceFree,
		Candidates:      len(facts.Candidates),
		RaceFreeObjects: facts.RaceFreeObjects,
		EscapingObjects: facts.EscapingObjects,
		facts:           facts,
		compiled: Target{kind: targetCompiled, name: r.name, prog: r.prog,
			args: r.args, inputs: r.inputs, preds: r.preds},
	}
	for _, l := range facts.Lints {
		rep.Findings = append(rep.Findings, LintFinding{
			Rule: l.Rule, Severity: l.Severity, Fn: l.Fn, Line: l.Line, Msg: l.Msg,
		})
	}
	return rep, nil
}
