package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/portend"
)

// width is the in-process engine pool width: one process on the 2-core
// machine the benchmark is sized for.
const width = 2

func timed(cfg config, w *workload) (*outcome, error) {
	if w.service {
		return timedService(cfg, w)
	}
	return timedInProcess(cfg, w)
}

// compile parses and compiles one program, as the facade does for a
// source target.
func compile(p *program) (*bytecode.Program, error) {
	ast, err := lang.Parse(p.source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	prog, err := bytecode.Compile(ast, p.name, bytecode.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	return prog, nil
}

// timedInProcess analyzes the workload's programs through the portend
// facade at width 2, in whole sweeps, until the measured time is up.
// Set-up generates and compiles the sources; the analyses then use
// compiled targets.
func timedInProcess(cfg config, w *workload) (*outcome, error) {
	var progs []program
	var compiled []*bytecode.Program
	setup, err := repeatSetup(func() error {
		progs = w.programs(cfg.seed)
		compiled = make([]*bytecode.Program, len(progs))
		for i := range progs {
			var err error
			if compiled[i], err = compile(&progs[i]); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.plant {
		plantWrongLabel(progs)
	}

	a := portend.New(portend.WithParallel(width))
	ctx := context.Background()
	var s samples
	start := time.Now()
	for s.elapsed < cfg.seconds {
		sweep, verdicts0 := time.Now(), s.verdicts
		for i := range progs {
			p := &progs[i]
			target := portend.Compiled(p.name, compiled[i]).WithArgs(p.args...).WithInputs(p.inputs...)
			var got []verdictID
			raceErrs := 0
			first := time.Duration(-1)
			t0 := time.Now()
			for v, err := range a.Analyze(ctx, target) {
				if first < 0 {
					first = time.Since(t0)
				}
				var re *portend.RaceError
				switch {
				case errors.As(err, &re):
					raceErrs++
				case err != nil:
					return nil, fmt.Errorf("%s: %w", p.name, err)
				default:
					got = append(got, idOf(v))
				}
			}
			s.latency = append(s.latency, time.Since(t0))
			if first >= 0 {
				s.first = append(s.first, first)
			}
			miss, attempted := p.misses(got, raceErrs)
			s.verdicts += len(got)
			s.failed += miss
			s.attempted += attempted
		}
		s.sweep(sweep, verdicts0)
		s.elapsed = time.Since(start)
	}
	return s.outcome(setup)
}
