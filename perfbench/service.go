package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/server"
)

// clients is the number of closed-loop clients of the timed service
// run: one per core of the 2-core machine the benchmark is sized for.
const clients = 2

// tierDir makes a fresh durable tier directory under the scratch
// directory; the caller removes it when its cycle ends.
func tierDir(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.scratch, "tiers-")
}

// servicePasses runs one cycle of the three service passes over dir,
// starting on d, a daemon already booted over dir: cold (new tiers: the
// write path), warm (the same programs again: tier reads and a larger
// flush) and restored (a fresh daemon over the same directory: the
// disk-restore path). each sees every pass's replies and the daemon
// that served them, before it stops.
func servicePasses(d *daemon, dir string, run func(*server.Client) []reply,
	each func(pass string, replies []reply, d *daemon) error) error {
	for _, pass := range []string{"cold", "warm", "restored"} {
		if pass == "restored" {
			if err := d.stop(); err != nil {
				return err
			}
			var err error
			if d, err = startDaemon(dir); err != nil {
				return err
			}
		}
		if err := each(pass, run(d.client()), d); err != nil {
			d.stop()
			return err
		}
	}
	return d.stop()
}

// timedService runs the corpus through an in-process portendd from two
// closed-loop clients, in cycles of the three service passes over a
// fresh data directory each, until the measured time is up. Every pass
// must stream the verdicts of the first cycle's cold pass, stats aside.
// Set-up generates the corpus and boots the first daemon.
func timedService(cfg config, w *workload) (*outcome, error) {
	dir, err := tierDir(cfg)
	if err != nil {
		return nil, err
	}
	var progs []program
	var d *daemon
	setup, err := repeatSetup(func() (err error) {
		progs = w.programs(cfg.seed)
		d, err = startDaemon(dir)
		return err
	}, func() error { return d.stop() })
	if err != nil {
		return nil, err
	}
	if cfg.plant {
		plantWrongLabel(progs)
	}

	var s samples
	perPass := map[string][]time.Duration{}
	ref := make([][]string, len(progs)) // the first cycle's cold streams
	closedLoop := func(c *server.Client) []reply { return runPass(c, progs, clients) }
	score := func(cycle int) func(string, []reply, *daemon) error {
		return func(pass string, replies []reply, _ *daemon) error {
			for i, r := range replies {
				p := &progs[i]
				miss, attempted := r.misses(p)
				s.failed += miss
				s.attempted += attempted
				if r.err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s (%s pass): %v\n", p.name, pass, r.err)
					continue
				}
				if cycle == 0 && pass == "cold" {
					ref[i] = r.stream()
				} else {
					s.failed += streamDiffs(ref[i], r.stream())
				}
				s.verdicts += len(r.verdicts)
				s.latency = append(s.latency, r.latency)
				perPass[pass] = append(perPass[pass], r.latency)
				if r.first >= 0 {
					s.first = append(s.first, r.first)
				}
			}
			return nil
		}
	}
	start := time.Now()
	for cycle := 0; s.elapsed < cfg.seconds; cycle++ {
		sweep, verdicts0 := time.Now(), s.verdicts
		if cycle > 0 {
			if dir, err = tierDir(cfg); err != nil {
				return nil, err
			}
			if d, err = startDaemon(dir); err != nil {
				return nil, err
			}
		}
		if err := servicePasses(d, dir, closedLoop, score(cycle)); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		s.sweep(sweep, verdicts0)
		s.elapsed = time.Since(start)
	}
	out, err := s.outcome(setup)
	if err != nil {
		return nil, err
	}
	out.notes["latency_p50_ms"] += fmt.Sprintf(" cold %.3f, warm %.3f, restored %.3f ms",
		ms(median(perPass["cold"])), ms(median(perPass["warm"])), ms(median(perPass["restored"])))
	return out, nil
}
