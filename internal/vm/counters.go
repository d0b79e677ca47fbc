package vm

import "sync/atomic"

// Counters aggregates interpreter fast-path statistics across the many
// transient Machines one analysis creates (replay, enforcement, every
// multi-path exploration segment). A Machine tallies locally — plain
// fields, no synchronization on the instruction path — and flushes the
// tallies into the attached Counters once per Run call, so concurrent
// workers sharing one Counters pay one atomic add per run segment, not
// per instruction.
type Counters struct {
	// FusedOps counts superinstructions executed (each stands for
	// FusedInstr.Len original instructions).
	FusedOps atomic.Int64
	// InternedConsts counts constants served from expr's intern table on
	// behalf of executed PUSH instructions and fused constants — the
	// allocations the intern table removed from the hot path.
	InternedConsts atomic.Int64
	// CloneAllocs / CloneBytes meter State.Clone itself: how many
	// allocations and bytes the snapshots of this analysis cost (the
	// persistent representation's price, not the states' footprints).
	// States attached via State.SetCounters add directly; Clone is on
	// checkpoint paths, not the instruction path, so the atomic adds are
	// off the interpreter's hot loop.
	CloneAllocs atomic.Int64
	CloneBytes  atomic.Int64
	// SkippedSteps counts instructions that spin-tracked runs
	// fast-forwarded over a proven period instead of interpreting them
	// (see period.go). They still count toward the run's budget, Steps
	// and Instrs exactly as if interpreted.
	SkippedSteps atomic.Int64
}
