// Package vm implements the PIL virtual machine: the reproduction's
// stand-in for the Cloud9 interpreter the paper builds Portend on.
//
// The machine interprets bytecode (internal/bytecode) with a cooperative,
// single-processor thread scheduler, exactly as the paper's runtime does
// (§3.1, §6): one thread runs at a time, and scheduling decisions happen
// at synchronization operations. The classifier's orchestration parks the
// machine at declarative stops (Stop): a racing access, an access to the
// racy object, a symbolic branch.
//
// Every value is a symbolic expression (internal/expr); fully concrete
// executions simply never leave constant expressions. States are deeply
// cloneable, giving the checkpoint/restore primitive of Algorithm 1 and
// the state forking of multi-path analysis. Observers (e.g. the
// happens-before race detector in internal/race) receive memory-access and
// synchronization events and are cloned along with states.
package vm

import (
	"fmt"

	"repro/internal/bytecode"
)

// Space distinguishes the two shared address spaces.
type Space uint8

// Address spaces.
const (
	SpaceGlobal Space = iota
	SpaceHeap
)

// Loc identifies one shared memory cell: a global scalar, a global array
// element, or a heap cell. Locs are the unit of race detection.
type Loc struct {
	Space Space
	Obj   int64 // global id or heap ref
	Elem  int64 // element index; 0 for scalars
}

// String renders the location; the global name needs the program, see
// FormatLoc.
func (l Loc) String() string {
	if l.Space == SpaceGlobal {
		return fmt.Sprintf("g%d[%d]", l.Obj, l.Elem)
	}
	return fmt.Sprintf("heap%d[%d]", l.Obj, l.Elem)
}

// FormatLoc renders a location with the global's source name resolved.
func FormatLoc(p *bytecode.Program, l Loc) string {
	if l.Space == SpaceGlobal && int(l.Obj) < len(p.Globals) {
		g := p.Globals[l.Obj]
		if g.Size > 1 {
			return fmt.Sprintf("%s[%d]", g.Name, l.Elem)
		}
		return g.Name
	}
	return l.String()
}

// ErrKind enumerates runtime error classes. All of them are "basic"
// specification violations in the paper's sense (§3.5): crashes, memory
// errors, and assertion (semantic property) failures.
type ErrKind uint8

// Runtime error kinds.
const (
	ErrNone ErrKind = iota
	ErrDivZero
	ErrOutOfBounds
	ErrUseAfterFree
	ErrDoubleFree
	ErrBadRef
	ErrAllocSize
	ErrAssert
	ErrUnlockNotOwned
	ErrRelock
	ErrJoinBad
	ErrBadArg
	ErrStack // operand stack underflow: compiler bug, not program bug
)

var errKindNames = map[ErrKind]string{
	ErrNone: "none", ErrDivZero: "division by zero",
	ErrOutOfBounds: "out-of-bounds access", ErrUseAfterFree: "use after free",
	ErrDoubleFree: "double free", ErrBadRef: "invalid heap reference",
	ErrAllocSize: "invalid allocation size", ErrAssert: "assertion failure",
	ErrUnlockNotOwned: "unlock of mutex not owned", ErrRelock: "relock of held mutex",
	ErrJoinBad: "join of invalid thread", ErrBadArg: "invalid argument index",
	ErrStack: "operand stack underflow",
}

// String returns a description of the error kind.
func (k ErrKind) String() string {
	if s, ok := errKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("errkind(%d)", uint8(k))
}

// RuntimeError is a program failure caught by the VM (the mechanism KLEE
// provides inside Cloud9 in the paper).
type RuntimeError struct {
	Kind ErrKind
	TID  int
	PC   bytecode.PCRef
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("thread %d at %s: %s: %s", e.TID, e.PC, e.Kind, e.Msg)
	}
	return fmt.Sprintf("thread %d at %s: %s", e.TID, e.PC, e.Kind)
}

// StopKind says why Machine.Run returned.
type StopKind uint8

// Stop kinds.
const (
	// StopFinished: the program terminated (main returned, or every
	// thread exited).
	StopFinished StopKind = iota
	// StopDeadlock: no thread can make progress and none is suspended
	// by the orchestrator — a genuine deadlock.
	StopDeadlock
	// StopStuck: only orchestrator-suspended threads could make
	// progress. The classifier interprets this during alternate-ordering
	// enforcement (paper case (b): Tj is blocked by Ti).
	StopStuck
	// StopError: a runtime error occurred; see RunResult.Err.
	StopError
	// StopBudget: the instruction budget was exhausted (the classifier's
	// timeout, paper case (a)).
	StopBudget
	// StopBreak: the machine's Stop matched; the machine can be resumed.
	StopBreak
	// StopCancelled: Machine.Interrupt reported cancellation (a
	// context deadline or cancel propagated by the orchestrator). The
	// run can be resumed if the interrupt condition clears.
	StopCancelled
)

var stopNames = map[StopKind]string{
	StopFinished: "finished", StopDeadlock: "deadlock", StopStuck: "stuck",
	StopError: "error", StopBudget: "budget", StopBreak: "breakpoint",
	StopCancelled: "cancelled",
}

// String names the stop kind.
func (k StopKind) String() string {
	if s, ok := stopNames[k]; ok {
		return s
	}
	return fmt.Sprintf("stop(%d)", uint8(k))
}

// RunResult is the outcome of Machine.Run.
type RunResult struct {
	Kind  StopKind
	Err   *RuntimeError // set for StopError
	Steps int64         // instructions executed during this Run call
}
