// Command perfbench is the repository's benchmark. One run measures one
// workload through the entry points users call — the portend facade
// in-process, or server.Client against an in-process portendd — checks
// every verdict against its expected label, and prints the end-to-end
// metrics. With --trace 1 it instead drives the workload's programs
// through every layer at width 1 under an in-memory span recorder and
// prints the per-layer breakdown.
//
// Run it from the repository root (run.sh builds it from source first):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}, where
// attempted counts races and failed counts misses (the error_frac
// numerator). A run whose checks fail prints it with correct=false and
// exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// scratch holds the per-run durable tier directories and the span
	// file; it is created on demand and is relative to the working
	// directory.
	scratch string
	// plant flips one expected label so the checker must report a miss:
	// the benchmark's self-test of its own verdict checks.
	plant bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper-suite, long-trace or service-corpus")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (long-trace sizes, service-corpus programs)")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
	fs.StringVar(&cfg.scratch, "scratch", ".bench_build/perfbench", "directory for durable tiers and spans")
	fs.BoolVar(&cfg.plant, "plant-wrong-label", false, "flip one expected label (checker self-test)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if workloadByName(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q (have paper-suite, long-trace, service-corpus)", cfg.workload)
	}
	if seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w := workloadByName(cfg.workload)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n",
		w.name, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	fmt.Printf("  loads: %s\n  bypasses: %s\n", w.loads, w.bypasses)

	var out *outcome
	if cfg.trace {
		out, err = traced(cfg, w)
	} else {
		out, err = timed(cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// outcome is one run's result: the metrics it defines, with the race
// tally behind error_frac.
type outcome struct {
	defs      []metricDef
	values    map[string]float64
	notes     map[string]string // extra context printed beside a metric
	attempted int               // races attempted
	failed    int               // misses: see program.misses and the service checks
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable table, then the JSON result line.
func (o *outcome) print(w io.Writer) error {
	res := jsonResult{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(o.defs)),
	}
	for _, d := range o.defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-24s %14.6g %-5s %s\n", d.name, v, d.unit, o.notes[d.name])
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-5s (%d misses of %d races)\n", "error_frac", frac, "frac", o.failed, o.attempted)
	if res.Attempted < 1 {
		return errors.New("no races attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
