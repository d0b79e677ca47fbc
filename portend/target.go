package portend

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/workloads"
)

// Target names what an Analyzer analyzes: PIL source text, a PIL source
// file, an already-compiled bytecode program, or a built-in evaluation
// workload. Targets are immutable values; WithArgs/WithInputs return
// modified copies, so a base target can be reused across analyses.
type Target struct {
	kind targetKind

	name   string
	source string
	path   string
	prog   *bytecode.Program

	args, inputs       []int64
	argsSet, inputsSet bool
	whatIfLines        []int
	preds              []core.Predicate // compiled targets only (see LintReport.Compiled)
}

type targetKind uint8

const (
	targetInvalid targetKind = iota
	targetSource
	targetFile
	targetCompiled
	targetWorkload
)

// Source targets PIL source text under the given display name.
func Source(name, src string) Target {
	return Target{kind: targetSource, name: name, source: src}
}

// File targets a PIL source file on disk; the path doubles as the name.
func File(path string) Target {
	return Target{kind: targetFile, name: path, path: path}
}

// Compiled targets an already-compiled program. What-if analysis is
// unavailable for compiled targets (it needs source to elide sync lines).
func Compiled(name string, prog *bytecode.Program) Target {
	return Target{kind: targetCompiled, name: name, prog: prog}
}

// Workload targets a built-in evaluation workload by name (see
// WorkloadNames). Workload targets carry their canonical arguments,
// input log, designated what-if synchronization lines, and — when the
// workload defines them — semantic predicates (e.g. fmm's "timestamps
// stay positive", §5.1).
func Workload(name string) Target {
	return Target{kind: targetWorkload, name: name}
}

// WithArgs overrides the target's program arguments.
func (t Target) WithArgs(args ...int64) Target {
	t.args, t.argsSet = append([]int64(nil), args...), true
	return t
}

// WithInputs overrides the target's input log.
func (t Target) WithInputs(inputs ...int64) Target {
	t.inputs, t.inputsSet = append([]int64(nil), inputs...), true
	return t
}

// WithWhatIfLines overrides the 1-based source lines whose lock/unlock
// operations a what-if analysis turns into no-ops.
func (t Target) WithWhatIfLines(lines ...int) Target {
	t.whatIfLines = append([]int(nil), lines...)
	return t
}

// Name returns the target's display name.
func (t Target) Name() string { return t.name }

// WorkloadNames lists the built-in workloads in evaluation order.
func WorkloadNames() []string {
	all := workloads.All()
	names := make([]string, 0, len(all))
	for _, w := range all {
		names = append(names, w.Name)
	}
	return names
}

// resolved is a target made concrete: compiled program, run coordinates,
// and any workload-supplied predicates.
type resolved struct {
	name        string
	source      string // "" for compiled targets
	prog        *bytecode.Program
	args        []int64
	inputs      []int64
	preds       []core.Predicate
	whatIfLines []int
}

// resolve compiles/loads the target. All failure modes wrap a sentinel
// from errors.go so callers can branch with errors.Is.
func (t Target) resolve() (*resolved, error) {
	r := &resolved{name: t.name, args: t.args, inputs: t.inputs, whatIfLines: t.whatIfLines}
	switch t.kind {
	case targetSource:
		r.source = t.source

	case targetFile:
		raw, err := os.ReadFile(t.path)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTarget, err)
		}
		r.source = string(raw)

	case targetCompiled:
		if t.prog == nil {
			return nil, fmt.Errorf("%w: Compiled target has nil program", ErrBadTarget)
		}
		r.prog, r.preds = t.prog, t.preds
		return r, nil

	case targetWorkload:
		w := workloads.ByName(t.name)
		if w == nil {
			return nil, fmt.Errorf("%w: %q (have: %s)", ErrUnknownWorkload, t.name, strings.Join(WorkloadNames(), " "))
		}
		r.source = w.Source
		if !t.argsSet {
			r.args = w.Args
		}
		if !t.inputsSet {
			r.inputs = w.Inputs
		}
		if len(r.whatIfLines) == 0 {
			r.whatIfLines = w.WhatIfLines
		}
		prog, err := compileSource(r.source, r.name)
		if err != nil {
			return nil, err
		}
		r.prog = prog
		if w.Predicates != nil {
			r.preds = w.Predicates(prog)
		}
		return r, nil

	default:
		return nil, fmt.Errorf("%w: zero Target", ErrBadTarget)
	}

	prog, err := compileSource(r.source, r.name)
	if err != nil {
		return nil, err
	}
	r.prog = prog
	return r, nil
}

func compileSource(src, name string) (*bytecode.Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	prog, err := bytecode.Compile(ast, name, bytecode.Options{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	return prog, nil
}
