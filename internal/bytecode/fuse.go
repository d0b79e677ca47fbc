package bytecode

// Superinstruction fusion.
//
// The interpreter's dominant instruction mix is straight-line local
// arithmetic: the compiler lowers `i = i + 1` to LOADL;PUSH;ADD;STOREL
// and every constant operand to a PUSH feeding the next binop. Fusing
// these sequences into superinstructions removes the per-instruction
// dispatch, operand-stack traffic, and Const minting for their interior
// — the largest single lever on Table 4 classification time after the
// scheduling-loop rework.
//
// Fusion is an *overlay*, not a rewrite: Func.Code is left untouched and
// Func.Fused carries, at each fusable sequence's first pc, a descriptor
// covering Len original instructions. The VM may execute the descriptor
// in one step (bumping its instruction counters by Len so schedule
// traces, race coordinates, and budgets are bit-identical to unfused
// execution) or fall back to the original instructions at any time —
// which it does near budget exhaustion, under spin tracking, and for any
// state checkpointed mid-sequence by an unfused run. Verdicts therefore
// cannot depend on whether fusion is enabled; the determinism suite
// diffs the two modes byte for byte.
//
// A sequence is fusable only when it is invisible to everything outside
// the executing frame: thread-local stack and locals traffic plus a pure
// binop. Shared-memory accesses, synchronization, control flow, and
// DIV/MOD (whose symbolic-divisor branching records path constraints)
// never fuse, and no jump target may land inside a fused sequence.

// FuseKind identifies a superinstruction pattern. Every pattern starts
// at a LOADL or a PUSH, and vm.Machine.run reads the overlay only before
// those two opcodes: a pattern that starts elsewhere must extend that
// test.
type FuseKind uint8

const (
	// FuseNone marks a pc that starts no fused sequence.
	FuseNone FuseKind = iota
	// FuseLocalConstOp covers LOADL src; PUSH k; <binop>; STOREL dst:
	// dst = src <op> k without touching the operand stack.
	FuseLocalConstOp
	// FuseConstOp covers PUSH k; <binop>: combine the stack top with a
	// constant in place.
	FuseConstOp
)

// FusedInstr describes one superinstruction. It is pure metadata over
// the original code: the covered instructions remain in Func.Code.
type FusedInstr struct {
	Kind FuseKind
	Op   OpCode // the binary operator (ADD..SHR, EQ..GE; never DIV/MOD)
	Src  int32  // FuseLocalConstOp: source local slot
	Dst  int32  // FuseLocalConstOp: destination local slot
	K    int64  // the fused PUSH constant
	Len  int32  // original instructions covered
}

// fusableBinop reports whether the operator may appear inside a fused
// sequence. DIV and MOD are excluded: their interpreter cases raise
// division-by-zero errors and record symbolic-divisor path constraints,
// which must keep their exact per-instruction coordinates.
func fusableBinop(op OpCode) bool {
	switch op {
	case ADD, SUB, MUL, BAND, BOR, BXOR, SHL, SHR, EQ, NE, LT, LE, GT, GE:
		return true
	}
	return false
}

// fuse computes the superinstruction overlay for every function. Called
// by Compile unless Options.NoFuse is set.
func (p *Program) fuse() {
	for i := range p.Funcs {
		p.Funcs[i].Fused = fuseFunc(p.Funcs[i].Code)
	}
}

// fuseFunc builds the overlay for one function's code, or nil when
// nothing fuses. Interior pcs of a fused sequence keep FuseNone — a
// machine resuming from a mid-sequence checkpoint simply executes the
// remaining original instructions.
func fuseFunc(code []Instr) []FusedInstr {
	// A jump may land on any interior instruction; such sequences must
	// not fuse (the jump would skip part of the superinstruction).
	targets := make([]bool, len(code)+1)
	for _, in := range code {
		if in.Op == JMP || in.Op == JZ {
			if t := int(in.A); t >= 0 && t < len(targets) {
				targets[t] = true
			}
		}
	}

	var fused []FusedInstr
	any := false
	for pc := 0; pc < len(code); {
		if pc+3 < len(code) &&
			code[pc].Op == LOADL && code[pc+1].Op == PUSH &&
			fusableBinop(code[pc+2].Op) && code[pc+3].Op == STOREL &&
			!targets[pc+1] && !targets[pc+2] && !targets[pc+3] {
			if fused == nil {
				fused = make([]FusedInstr, len(code))
			}
			fused[pc] = FusedInstr{
				Kind: FuseLocalConstOp, Op: code[pc+2].Op,
				Src: int32(code[pc].A), Dst: int32(code[pc+3].A),
				K: code[pc+1].A, Len: 4,
			}
			any = true
			pc += 4
			continue
		}
		if pc+1 < len(code) &&
			code[pc].Op == PUSH && fusableBinop(code[pc+1].Op) &&
			!targets[pc+1] {
			if fused == nil {
				fused = make([]FusedInstr, len(code))
			}
			fused[pc] = FusedInstr{Kind: FuseConstOp, Op: code[pc+1].Op, K: code[pc].A, Len: 2}
			any = true
			pc += 2
			continue
		}
		pc++
	}
	if !any {
		return nil
	}
	return fused
}

// FusedCount returns the number of superinstructions in the program's
// overlay; zero when compiled with NoFuse. Exposed for tests and the
// disassembler.
func (p *Program) FusedCount() int {
	n := 0
	for i := range p.Funcs {
		for _, f := range p.Funcs[i].Fused {
			if f.Kind != FuseNone {
				n++
			}
		}
	}
	return n
}
