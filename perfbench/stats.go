package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, which lands past the first repetitions (slower while the heap
// grows) and ignores the ones a garbage collection interrupts.
const setupReps = 51

// samples accumulates the analyses of a timed run.
type samples struct {
	latency []time.Duration // submission to the last verdict (or the done event)
	first   []time.Duration // submission to the first verdict, for analyses that have one

	// rates holds verdicts per second of each sweep over the workload's
	// programs (each cycle of the service passes); races_per_s is their
	// median, so a stall in one sweep does not move it.
	rates []float64

	verdicts  int
	attempted int // races attempted: see program.misses
	failed    int // misses: see program.misses and the service checks
	elapsed   time.Duration
}

// sweep closes one sweep that began at start with the verdict count at
// verdicts0.
func (s *samples) sweep(start time.Time, verdicts0 int) {
	d := time.Since(start)
	s.rates = append(s.rates, float64(s.verdicts-verdicts0)/d.Seconds())
}

// outcome turns the samples into the end-to-end metrics.
func (s *samples) outcome(setup time.Duration) (*outcome, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := len(s.latency)
	p90note := fmt.Sprintf("(n=%d)", n)
	if n < 100 {
		p90note = fmt.Sprintf("(n=%d; p90 needs at least 100 samples)", n)
	}
	return &outcome{
		defs: endToEnd,
		values: map[string]float64{
			"setup_s":              setup.Seconds(),
			"races_per_s":          medianF(s.rates),
			"latency_p50_ms":       ms(quantile(s.latency, 0.5)),
			"latency_p90_ms":       ms(quantile(s.latency, 0.9)),
			"first_verdict_p50_ms": ms(quantile(s.first, 0.5)),
			"peak_rss_mb":          rss,
		},
		notes: map[string]string{
			"setup_s":              fmt.Sprintf("(median of %d set-ups)", setupReps),
			"races_per_s":          fmt.Sprintf("(median of %d sweeps; %d verdicts in %.3fs)", len(s.rates), s.verdicts, s.elapsed.Seconds()),
			"latency_p50_ms":       fmt.Sprintf("(n=%d)", n),
			"latency_p90_ms":       p90note,
			"first_verdict_p50_ms": fmt.Sprintf("(n=%d)", len(s.first)),
		},
		attempted: s.attempted,
		failed:    s.failed,
	}, nil
}

// quantile interpolates linearly between the closest ranks; 0 for no
// samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// repeatSetup runs setup setupReps times and returns the median
// duration; the state the last repetition leaves is the one measured.
// reset, when non-nil, runs untimed between repetitions.
func repeatSetup(setup func() error, reset func() error) (time.Duration, error) {
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		if i > 0 && reset != nil {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return median(ds), nil
}
