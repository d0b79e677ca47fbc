package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

// classFromName maps a wire-format class string back to the engine
// taxonomy.
func classFromName(s string) (core.Class, bool) {
	for _, c := range corpusClasses {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// RunCorpusRemote evaluates the corpus through a portendd instance
// instead of in-process: each program's source is submitted to the
// service, the streamed verdicts are matched to labels by racy-global
// name, and the tallies come out in the same CorpusResult shape as
// RunCorpus — so the -json report and baseline gate work identically.
// Programs run sequentially (the server parallelizes each analysis per
// the parallel width), keeping outcome order deterministic.
func RunCorpusRemote(ctx context.Context, c *server.Client, progs []*corpus.Program, parallel int) (*CorpusResult, error) {
	res := &CorpusResult{Programs: len(progs)}
	start := time.Now()
	for _, cp := range progs {
		if cp.Generated {
			res.Generated++
		} else {
			res.Curated++
		}
		if cp.Seed != 0 {
			res.Seed = cp.Seed
		}
		req := server.Request{
			Source: cp.Source,
			Name:   cp.Name,
			Args:   cp.Args,
			Inputs: cp.Inputs,
			Options: &server.RequestOptions{
				Parallel: parallel,
			},
		}
		cp := cp
		_, err := c.Analyze(ctx, req, func(ev server.Event) error {
			if ev.Type != server.EventVerdict {
				return nil
			}
			v, err := ev.DecodeVerdict()
			if err != nil {
				return err
			}
			got, ok := classFromName(string(v.Class))
			if !ok {
				return fmt.Errorf("unknown verdict class %q", v.Class)
			}
			// The wire verdict names the racy global directly (heap
			// races render as "heap object", which no label matches —
			// the same unlabeled outcome RunCorpus records for them).
			name := v.Race.Object
			exp, known := cp.Truth[name]
			res.Outcomes = append(res.Outcomes, CorpusOutcome{
				Program:   cp.Name,
				Family:    cp.Family,
				Global:    name,
				Known:     known,
				KnownMiss: cp.KnownMiss[name],
				Truth:     exp.Truth,
				Want:      exp.Portend,
				Got:       got,
			})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("remote corpus analysis of %s: %w", cp.Name, err)
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}
