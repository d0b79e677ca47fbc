// Package server implements portendd, the long-lived multi-tenant
// analysis service: an HTTP/JSON front end over the public portend
// facade that streams verdicts as NDJSON, keeps per-submission
// persistent cache tiers so repeat analyses start warm, and applies
// admission control (fair round-robin across tenants, bounded queues,
// load shedding that degrades to coarser verdicts before it drops
// work). See docs/service.md for the wire protocol.
package server

import (
	"encoding/json"
	"fmt"

	"repro/portend"
)

// Request is the body of POST /v1/analyze: what to analyze and how.
// Exactly one of Workload or Source must be set. Args and Inputs are
// overrides — absent (null) keeps the workload's canonical coordinates,
// while an explicitly empty array overrides with no values.
type Request struct {
	// Workload names a built-in evaluation workload.
	Workload string `json:"workload,omitempty"`
	// Source is PIL source text; Name is its display name (defaults to
	// "request").
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`

	Args   []int64 `json:"args,omitempty"`
	Inputs []int64 `json:"inputs,omitempty"`

	// Options tunes the analysis; nil or zero fields keep the paper's
	// evaluation defaults.
	Options *RequestOptions `json:"options,omitempty"`

	// Verbose asks the server to attach the full debugging-aid report
	// to every verdict event.
	Verbose bool `json:"verbose,omitempty"`
}

// RequestOptions is the tunable subset of the engine configuration the
// service exposes. Zero values mean "default"; Seed is a pointer so
// seed 0 can be pinned explicitly.
type RequestOptions struct {
	Mp             int     `json:"mp,omitempty"`
	Ma             int     `json:"ma,omitempty"`
	SymbolicInputs int     `json:"sym,omitempty"`
	Parallel       int     `json:"parallel,omitempty"`
	MaxForks       int     `json:"maxForks,omitempty"`
	RunBudget      int64   `json:"runBudget,omitempty"`
	EnforceBudget  int64   `json:"enforceBudget,omitempty"`
	Seed           *uint64 `json:"seed,omitempty"`
}

// Validate rejects requests that name no target or both targets.
func (r *Request) Validate() error {
	if r.Workload == "" && r.Source == "" {
		return fmt.Errorf("request must set workload or source")
	}
	if r.Workload != "" && r.Source != "" {
		return fmt.Errorf("request must set workload or source, not both")
	}
	return nil
}

// Target builds the portend target the request names.
func (r *Request) Target() portend.Target {
	var t portend.Target
	if r.Workload != "" {
		t = portend.Workload(r.Workload)
	} else {
		name := r.Name
		if name == "" {
			name = "request"
		}
		t = portend.Source(name, r.Source)
	}
	if r.Args != nil {
		t = t.WithArgs(r.Args...)
	}
	if r.Inputs != nil {
		t = t.WithInputs(r.Inputs...)
	}
	return t
}

// Event types on the NDJSON response stream, in the order they can
// appear: zero or one "degraded", then any mix of "verdict" and
// "raceError" in deterministic detection order, then exactly one
// terminal "error" or "done".
const (
	EventVerdict   = "verdict"
	EventRaceError = "raceError"
	EventDegraded  = "degraded"
	EventError     = "error"
	EventDone      = "done"
)

// Event is one NDJSON line of the response stream.
type Event struct {
	Type string `json:"type"`

	// Verdict carries the portend.Verdict JSON exactly as the server
	// marshalled it — clients that re-emit these bytes reproduce the
	// local `portend -stream -json` output byte for byte. Summary is the
	// verdict's one-line rendering; Report the full debugging aid (only
	// when the request asked for Verbose).
	Verdict json.RawMessage `json:"verdict,omitempty"`
	Summary string          `json:"summary,omitempty"`
	Report  string          `json:"report,omitempty"`

	// Race and Message describe a raceError or terminal error.
	Race    string `json:"race,omitempty"`
	Message string `json:"message,omitempty"`

	// Panic marks a terminal error event minted by the recover boundary
	// around a panicking run; Stack carries the captured goroutine stack.
	// The panic poisons (evicts) the run's cache tier but the daemon and
	// every other request keep serving.
	Panic bool   `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`

	// Degraded describes the coarser budget a soft-shed run got.
	Degraded *DegradedInfo `json:"degraded,omitempty"`

	// Done summarizes the finished run.
	Done *DoneInfo `json:"done,omitempty"`
}

// DecodeVerdict unmarshals a verdict event's payload. The returned
// verdict is the wire shape only: String and DebugReport need the
// engine-side state and render via Summary/Report on the event instead.
func (e *Event) DecodeVerdict() (portend.Verdict, error) {
	var v portend.Verdict
	err := json.Unmarshal(e.Verdict, &v)
	return v, err
}

// DegradedInfo reports the reduced exploration budget applied to a run
// admitted past the soft queue threshold.
type DegradedInfo struct {
	Mp int `json:"mp"`
	Ma int `json:"ma"`
}

// DoneInfo is the summary on the terminal "done" event.
type DoneInfo struct {
	Target     string `json:"target"`
	Races      int    `json:"races"`
	Verdicts   int    `json:"verdicts"`
	Errors     int    `json:"errors"`
	DurationNs int64  `json:"durationNs"`

	// WarmStart reports that this run's cache tier already held entries
	// deposited by an earlier identical submission. Tier snapshots the
	// tier after the run; the Hit deltas attribute cross- and intra-run
	// reuse observed while this run executed.
	WarmStart bool     `json:"warmStart"`
	Degraded  bool     `json:"degraded,omitempty"`
	Tier      TierInfo `json:"tier"`

	// StaticClean marks a fast-path answer: the static pre-analysis
	// proved the program race-free (no candidate pair survives its
	// lockset/may-happen-in-parallel tests), so no dynamic run can detect
	// a race and the server answered without taking an analysis slot.
	StaticClean bool `json:"staticClean,omitempty"`

	// PrunedSchedules sums the exploration worklist items the static
	// prune skipped across this run's verdicts.
	PrunedSchedules int `json:"prunedSchedules,omitempty"`

	// CloneAllocs and CloneBytes sum the copy-on-write snapshot meter
	// across this run's verdicts: allocations and bytes State.Clone
	// itself spent (checkpoint deposits, enforcement forks, exploration
	// siblings). Throughput accounting; never affects a verdict.
	CloneAllocs int64 `json:"cloneAllocs,omitempty"`
	CloneBytes  int64 `json:"cloneBytes,omitempty"`
}

// TierInfo is the wire form of a cache tier's population and traffic.
type TierInfo struct {
	Runs           int64 `json:"runs"`
	Checkpoints    int   `json:"checkpoints"`
	CheckpointHits int   `json:"checkpointHits"`
}

// LintIssue is one static diagnostic attached to a 422 rejection.
type LintIssue struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Fn       string `json:"fn"`
	Line     int    `json:"line"`
	Msg      string `json:"msg"`
}

// ErrorBody is the JSON body of non-streaming error responses (400
// malformed request, 422 lint-rejected, 429 shed, 503 draining).
// Clients distinguish shedding by the Overloaded flag rather than
// parsing the message.
type ErrorBody struct {
	Error      string `json:"error"`
	Overloaded bool   `json:"overloaded,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	QueueDepth int    `json:"queueDepth,omitempty"`

	// Draining marks a 503 from a daemon that is shutting down and no
	// longer admits work; a resuming client should retry elsewhere or
	// after the restart.
	Draining bool `json:"draining,omitempty"`

	// Lint carries the error-severity static findings behind a 422: sync
	// operations the static pass proves fault on every execution
	// (double-lock, unlock of an unheld mutex, wait without its mutex).
	// Running such a program would only reproduce the fault dynamically.
	Lint []LintIssue `json:"lint,omitempty"`
}
