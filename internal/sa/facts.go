package sa

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bytecode"
)

// Schema identifies the Facts artifact encoding.
const Schema = "portend-sa/1"

// Facts is the canonical artifact of the static pass. Construction is
// deterministic (all iteration is over slices in program order, never
// maps) and Encode is byte-stable: analyzing the same program any number
// of times, at any parallelism, yields identical bytes.
type Facts struct {
	SchemaV string `json:"schema"`
	Program string `json:"program"`
	Funcs   int    `json:"funcs"`
	Globals int    `json:"globals"`
	Mutexes int    `json:"mutexes"`
	Sites   int    `json:"sites"` // reachable shared-access instructions
	LockTop bool   `json:"lockTop,omitempty"`

	// RaceFree means no candidate pair survived: every reachable pair
	// of shared accesses is single-threaded, ordered by spawn
	// structure, or protected by a common must-held lock. The dynamic
	// detector cannot report a race on such a program.
	RaceFree   bool        `json:"raceFree"`
	Candidates []Candidate `json:"candidates"`

	// RaceFreeObjects are object classes that are accessed but have no
	// candidate pair; EscapingObjects may be reached by two concurrent
	// threads (regardless of writes or locks).
	RaceFreeObjects []string `json:"raceFreeObjects,omitempty"`
	EscapingObjects []string `json:"escapingObjects,omitempty"`

	Lints []Lint `json:"lints,omitempty"`

	// reach is the per-pc reach table (indexed [fn][pc]) the engine's
	// multi-path prune queries. It is not serialized.
	reach [][]reachSet
}

// Site is one shared-access instruction in a candidate pair.
type Site struct {
	Fn        string   `json:"fn"`
	PC        int      `json:"pc"`
	Line      int      `json:"line"`
	Op        string   `json:"op"`
	MustLocks []string `json:"mustLocks,omitempty"`
}

// Candidate is a statically possible race pair: same object class, at
// least one write, may-happen-in-parallel, no common must-held lock.
type Candidate struct {
	Object string `json:"object"` // global name, or "heap"
	Space  string `json:"space"`  // "global" | "heap"
	First  Site   `json:"first"`
	Second Site   `json:"second"`
	Write  string `json:"write"` // "first" | "second" | "both"

	// CommonMayLocks are locks possibly (but not certainly) held at
	// both sites — a hint that the pair may be protected on some paths.
	CommonMayLocks []string `json:"commonMayLocks,omitempty"`
}

// Lint severities.
const (
	SeverityError   = "error"   // certain runtime error if the site executes
	SeverityWarning = "warning" // suspicious but not certainly fatal
)

// Lint is one diagnostic from the static pass.
type Lint struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Fn       string `json:"fn"`
	PC       int    `json:"pc"`
	Line     int    `json:"line"`
	Msg      string `json:"msg"`
}

// Encode renders the canonical byte-stable artifact.
func (f *Facts) Encode() []byte {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err) // Facts is marshal-safe by construction
	}
	return append(b, '\n')
}

// ErrorLints returns the error-severity diagnostics.
func (f *Facts) ErrorLints() []Lint {
	var out []Lint
	for _, l := range f.Lints {
		if l.Severity == SeverityError {
			out = append(out, l)
		}
	}
	return out
}

// FrameMayTouchGlobal reports whether an activation of fn suspended (or
// executing) at pc may still access global g, directly or through
// anything it calls or spawns. Conservative (true) without a reach table
// or out of range.
func (f *Facts) FrameMayTouchGlobal(fn, pc, g int) bool {
	r := f.reachAt(fn, pc)
	if r == nil {
		return true
	}
	return r.globals.has(g)
}

// FrameMayTouchHeap is FrameMayTouchGlobal for the heap object class.
func (f *Facts) FrameMayTouchHeap(fn, pc int) bool {
	r := f.reachAt(fn, pc)
	if r == nil {
		return true
	}
	return r.heap
}

// FrameMayFork reports whether an activation of fn at pc may still
// reach a fork point with a possibly-symbolic operand — i.e. whether
// the symbolic explorer could ever branch on this frame's future.
func (f *Facts) FrameMayFork(fn, pc int) bool {
	r := f.reachAt(fn, pc)
	if r == nil {
		return true
	}
	return r.fork
}

func (f *Facts) reachAt(fn, pc int) *reachSet {
	if f == nil || fn < 0 || fn >= len(f.reach) {
		return nil
	}
	row := f.reach[fn]
	if pc < 0 || pc >= len(row) {
		// pc == len(code) (a frame past its last instruction) has
		// nothing left to run: the empty reach set.
		if pc == len(row) {
			return &reachSet{}
		}
		return nil
	}
	return &row[pc]
}

// Render formats the facts for humans (the portend -lint output).
func (f *Facts) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static analysis: %s\n", f.Program)
	fmt.Fprintf(&b, "  %d function(s), %d global(s), %d mutex(es), %d shared-access site(s)\n",
		f.Funcs, f.Globals, f.Mutexes, f.Sites)
	if f.RaceFree {
		b.WriteString("  statically race-free: no candidate pairs\n")
	} else {
		fmt.Fprintf(&b, "  %d race-pair candidate(s):\n", len(f.Candidates))
		for _, c := range f.Candidates {
			fmt.Fprintf(&b, "    %s %q: %s <-> %s (write: %s)%s\n",
				c.Space, c.Object, c.First.format(), c.Second.format(), c.Write,
				lockHint(c.CommonMayLocks))
		}
	}
	if len(f.RaceFreeObjects) > 0 {
		fmt.Fprintf(&b, "  race-free objects: %s\n", strings.Join(f.RaceFreeObjects, ", "))
	}
	if len(f.EscapingObjects) > 0 {
		fmt.Fprintf(&b, "  escaping objects: %s\n", strings.Join(f.EscapingObjects, ", "))
	}
	for _, l := range f.Lints {
		fmt.Fprintf(&b, "  %s: %s:%d (line %d): %s: %s\n", l.Severity, l.Fn, l.PC, l.Line, l.Rule, l.Msg)
	}
	return b.String()
}

func (s Site) format() string {
	out := fmt.Sprintf("%s:%d (line %d) %s", s.Fn, s.PC, s.Line, s.Op)
	if len(s.MustLocks) > 0 {
		out += " holding " + strings.Join(s.MustLocks, ",")
	}
	return out
}

func lockHint(locks []string) string {
	if len(locks) == 0 {
		return ""
	}
	return " [maybe-protected by " + strings.Join(locks, ",") + "]"
}

// accessSite is an internal reachable shared-access instruction.
type accessSite struct {
	fn, pc int
	op     bytecode.OpCode
	write  bool
	must   uint64
	may    uint64
}

// facts assembles the artifact from the finished analysis phases.
func (a *analysis) facts() *Facts {
	p := a.p
	f := &Facts{
		SchemaV: Schema,
		Program: p.Name,
		Funcs:   len(p.Funcs),
		Globals: len(p.Globals),
		Mutexes: len(p.Mutexes),
		LockTop: a.lockTop,
		reach:   a.pcReach,
	}

	// Collect reachable shared-access sites per object class: globals
	// by id, then the heap as one class (matching the dynamic
	// detector's object granularity).
	classes := make([][]accessSite, len(p.Globals)+1)
	heapClass := len(p.Globals)
	for fn := range p.Funcs {
		if !a.entrySeen[fn] {
			continue
		}
		for pc, in := range p.Funcs[fn].Code {
			if !in.Op.IsSharedAccess() || !a.reached[fn][pc] {
				continue
			}
			s := accessSite{
				fn: fn, pc: pc, op: in.Op, write: in.Op.IsSharedWrite(),
				must: a.must[fn][pc], may: a.may[fn][pc],
			}
			switch in.Op {
			case bytecode.LOADG, bytecode.STOREG, bytecode.LOADE, bytecode.STOREE:
				if g := int(in.A); g >= 0 && g < len(p.Globals) {
					classes[g] = append(classes[g], s)
					f.Sites++
				}
			default: // LOADH, STOREH, FREE
				classes[heapClass] = append(classes[heapClass], s)
				f.Sites++
			}
		}
	}

	for class, sites := range classes {
		if len(sites) == 0 {
			continue
		}
		object, space := "heap", "heap"
		if class < len(p.Globals) {
			object, space = p.Globals[class].Name, "global"
		}
		hadCandidate, escapes := false, false
		for i := 0; i < len(sites); i++ {
			for j := i; j < len(sites); j++ {
				s1, s2 := sites[i], sites[j]
				if !a.mayHappenInParallel(s1.fn, s1.pc, s2.fn, s2.pc) {
					continue
				}
				escapes = true
				if !s1.write && !s2.write {
					continue
				}
				if s1.must&s2.must != 0 {
					continue // common must-held lock: mutually exclusive
				}
				hadCandidate = true
				f.Candidates = append(f.Candidates, Candidate{
					Object: object,
					Space:  space,
					First:  a.site(s1),
					Second: a.site(s2),
					Write:  writeKind(s1.write, s2.write),

					CommonMayLocks: a.lockNames(s1.may & s2.may),
				})
			}
		}
		if escapes {
			f.EscapingObjects = append(f.EscapingObjects, object)
		}
		if !hadCandidate {
			f.RaceFreeObjects = append(f.RaceFreeObjects, object)
		}
	}
	f.RaceFree = len(f.Candidates) == 0
	f.Lints = a.lint()
	return f
}

func (a *analysis) site(s accessSite) Site {
	in := a.p.Funcs[s.fn].Code[s.pc]
	return Site{
		Fn:        a.p.Funcs[s.fn].Name,
		PC:        s.pc,
		Line:      int(in.Line),
		Op:        s.op.String(),
		MustLocks: a.lockNames(s.must),
	}
}

func (a *analysis) lockNames(mask uint64) []string {
	if mask == 0 {
		return nil
	}
	var out []string
	for i, name := range a.p.Mutexes {
		if i < 64 && mask&(uint64(1)<<uint(i)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

func writeKind(w1, w2 bool) string {
	switch {
	case w1 && w2:
		return "both"
	case w1:
		return "first"
	default:
		return "second"
	}
}
