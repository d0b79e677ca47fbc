package bytecode

import (
	"fmt"
	"strings"
)

// Global describes one shared global variable.
type Global struct {
	Name string
	Size int64 // 1 for scalars, >1 for arrays
	Init int64 // initial value (scalars; array cells start at 0)
}

// BarrierDef describes a barrier with a fixed participant count.
type BarrierDef struct {
	Name  string
	Count int64
}

// Func is a compiled function.
type Func struct {
	Name    string
	NParams int
	NLocals int // including parameters and compiler temporaries
	Code    []Instr

	// Fused is the superinstruction overlay produced by the compile-time
	// fusion pass (see fuse.go): Fused[pc] describes the fused sequence
	// starting at pc, or has Kind FuseNone. nil when the function has no
	// fusable sequences or the program was compiled with Options.NoFuse.
	// The overlay never changes execution semantics or instruction
	// accounting — it only lets the VM execute the covered instructions
	// in one dispatch.
	Fused []FusedInstr
}

// PrintPart is one element of a print descriptor: either a literal string
// or a placeholder for an expression operand popped from the stack.
type PrintPart struct {
	Lit    string
	IsExpr bool
}

// Program is a compiled PIL program. Programs are immutable after
// compilation and are shared (not copied) between checkpointed VM states.
type Program struct {
	Name     string
	Globals  []Global
	Mutexes  []string
	Conds    []string
	Barriers []BarrierDef
	Funcs    []Func
	Prints   [][]PrintPart
	MainFunc int

	// writeSets[f] is the set of global ids that function f may write,
	// transitively through calls and spawns. Used by the infinite-loop
	// vs ad-hoc-synchronization diagnosis (§3.5): a spin loop whose exit
	// condition reads a global that some live thread may still write is
	// ad-hoc synchronization; otherwise it is an infinite loop.
	writeSets []map[int]struct{}
}

// GlobalID returns the index of the named global, or -1.
func (p *Program) GlobalID(name string) int {
	for i := range p.Globals {
		if p.Globals[i].Name == name {
			return i
		}
	}
	return -1
}

// FuncID returns the index of the named function, or -1.
func (p *Program) FuncID(name string) int {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return i
		}
	}
	return -1
}

// MutexID returns the index of the named mutex, or -1.
func (p *Program) MutexID(name string) int {
	for i, m := range p.Mutexes {
		if m == name {
			return i
		}
	}
	return -1
}

// WriteSet returns the set of global ids that function f may write,
// transitively. The returned map must not be modified.
func (p *Program) WriteSet(f int) map[int]struct{} {
	if f < 0 || f >= len(p.writeSets) {
		return nil
	}
	return p.writeSets[f]
}

// computeWriteSets computes transitive global write sets per function.
func (p *Program) computeWriteSets() {
	n := len(p.Funcs)
	direct := make([]map[int]struct{}, n)
	calls := make([][]int, n)
	for i := range p.Funcs {
		direct[i] = map[int]struct{}{}
		for _, in := range p.Funcs[i].Code {
			switch in.Op {
			case STOREG, STOREE:
				direct[i][int(in.A)] = struct{}{}
			case CALL, SPAWN:
				calls[i] = append(calls[i], int(in.A))
			}
		}
	}
	// Fixed-point propagation over the (small) call graph.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for _, callee := range calls[i] {
				if callee < 0 || callee >= n {
					continue
				}
				for g := range direct[callee] {
					if _, ok := direct[i][g]; !ok {
						direct[i][g] = struct{}{}
						changed = true
					}
				}
			}
		}
	}
	p.writeSets = direct
}

// CountLOC returns the number of non-empty, non-comment source lines; used
// for the Table 1 program inventory.
func CountLOC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if idx := strings.Index(s, "*/"); idx >= 0 {
				inBlock = false
				s = strings.TrimSpace(s[idx+2:])
			} else {
				continue
			}
		}
		if i := strings.Index(s, "//"); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		if i := strings.Index(s, "/*"); i >= 0 {
			rest := s[i+2:]
			if !strings.Contains(rest, "*/") {
				inBlock = true
			}
			s = strings.TrimSpace(s[:i])
		}
		if s != "" {
			n++
		}
	}
	return n
}

// Disasm renders a human-readable disassembly of the whole program.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for i, g := range p.Globals {
		if g.Size > 1 {
			fmt.Fprintf(&b, "  global %d: %s[%d]\n", i, g.Name, g.Size)
		} else {
			fmt.Fprintf(&b, "  global %d: %s = %d\n", i, g.Name, g.Init)
		}
	}
	for i, m := range p.Mutexes {
		fmt.Fprintf(&b, "  mutex %d: %s\n", i, m)
	}
	for i, c := range p.Conds {
		fmt.Fprintf(&b, "  cond %d: %s\n", i, c)
	}
	for i, bar := range p.Barriers {
		fmt.Fprintf(&b, "  barrier %d: %s(%d)\n", i, bar.Name, bar.Count)
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		fmt.Fprintf(&b, "fn %s (params=%d locals=%d)\n", f.Name, f.NParams, f.NLocals)
		for pc, in := range f.Code {
			note := ""
			if pc < len(f.Fused) && f.Fused[pc].Kind != FuseNone {
				note = fmt.Sprintf(" [fused x%d]", f.Fused[pc].Len)
			}
			fmt.Fprintf(&b, "  %4d  %-14s ; line %d%s\n", pc, in.String(), in.Line, note)
		}
	}
	return b.String()
}

// PCRef identifies a static program location: function and pc, with the
// source line for reports.
type PCRef struct {
	Fn   int
	PC   int
	Line int32
}

// String renders "fn@pc (line N)"; the function name requires the program,
// see Program.FormatPC.
func (r PCRef) String() string {
	return fmt.Sprintf("fn%d@%d(line %d)", r.Fn, r.PC, r.Line)
}

// FormatPC renders a PCRef with the function name resolved.
func (p *Program) FormatPC(r PCRef) string {
	name := fmt.Sprintf("fn%d", r.Fn)
	if r.Fn >= 0 && r.Fn < len(p.Funcs) {
		name = p.Funcs[r.Fn].Name
	}
	return fmt.Sprintf("%s:%d (%s.pil:%d)", name, r.PC, p.Name, r.Line)
}
