package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/dstore"
	"repro/internal/race"
	"repro/internal/sa"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/portend"
)

// span is one timed call into a layer, or a part of one derived from
// what the call reported.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the enclosing span; -1 for a root
	analysis   int
}

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. The traced run is sequential, so it takes no
// lock.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, analysis int) int {
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: parent, analysis: analysis})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].end = time.Now()
	return r.spans[i].end.Sub(r.spans[i].start)
}

func (r *recorder) add(name string, parent, analysis int, start, end time.Time) {
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, analysis: analysis})
}

// layerOf maps a span to the module it times: its name up to the first
// dot. The per-program root span is the benchmark's own glue, and
// remote.run is the part of a request the daemon reports as its run.
func layerOf(name string) string {
	if name == "analysis" {
		return "bench"
	}
	l, _, _ := strings.Cut(name, ".")
	return l
}

var layers = []string{"bench", "bytecode", "sa", "race", "core", "vm", "dstore", "server", "remote"}

// selfTimes sums, per layer, the self time of spans[from:]: each span's
// duration less the part its child spans cover.
func (r *recorder) selfTimes(from int) map[string]time.Duration {
	spans := r.spans[from:]
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= from {
			child[s.parent-from] += s.end.Sub(s.start)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[layerOf(s.name)] += s.end.Sub(s.start) - child[i]
	}
	return out
}

func (r *recorder) write(path string) error {
	type wire struct {
		Name     string `json:"name"`
		StartNs  int64  `json:"startNs"`
		EndNs    int64  `json:"endNs"`
		Parent   int    `json:"parent"`
		Analysis int    `json:"analysis"`
	}
	out := make([]wire, len(r.spans))
	for i, s := range r.spans {
		out[i] = wire{s.name, s.start.Sub(r.epoch).Nanoseconds(), s.end.Sub(r.epoch).Nanoseconds(), s.parent, s.analysis}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedOptions is the engine configuration of the traced run: the
// evaluation defaults at width 1, so that spans add up.
func tracedOptions() core.Options {
	o := core.DefaultOptions()
	o.Parallel = 1
	return o
}

// tracer drives one workload's programs through every layer that can
// take them, at width 1: compile, static pass, detection and
// classification on a fresh tier, plain interpretation, Algorithm 1
// alone, the durable codec on the tier the analysis filled, and the
// three service passes from one client.
type tracer struct {
	cfg       config
	progs     []program
	rec       recorder
	ids       int // analysis ids handed out so far
	attempted int
	failed    int
}

func (t *tracer) nextID() int {
	t.ids++
	return t.ids - 1
}

// tally is one traced pass's raw measurements.
type tally struct {
	from                              int // index of the pass's first span
	analyses                          int
	compile, lint, detect, classify   time.Duration
	run                               time.Duration // whole RunStream calls
	steps, reports, verdicts          int
	execTime                          time.Duration
	execSteps                         int64
	cloneAllocs, cloneBytes, fusedOps int64
	alg1                              time.Duration
	alg1Races, unenforceable          int
	itemsRun, pruned, primaries       int
	alternates, branches, truncated   int
	tier                              core.TierStats // summed over the fresh tiers
	snapshot, write, load, restore    time.Duration
	tierBytes                         int64
	overhead                          time.Duration
	requests                          int
	perPass                           map[string][]time.Duration
	warmRan, warm                     int
	flushes, restores                 int64
	untraced                          time.Duration
	untracedVerdicts                  int
}

func (k *tally) addStats(s core.Stats) {
	k.cloneAllocs += s.CloneAllocs
	k.cloneBytes += s.CloneBytes
	k.fusedOps += s.FusedOps
	k.itemsRun += s.PathItemsRun
	k.pruned += s.PrunedSchedules
	k.primaries += s.PrimaryPaths
	k.alternates += s.Alternates
	k.branches += s.Branches
	k.truncated += s.TruncatedPaths
}

func (k *tally) addTier(s core.TierStats) {
	k.tier.CheckpointHits += s.CheckpointHits
	k.tier.CheckpointMisses += s.CheckpointMisses
	k.tier.CheckpointThinned += s.CheckpointThinned
	k.tier.SymHits += s.SymHits
	k.tier.SymMisses += s.SymMisses
	k.tier.SymThinned += s.SymThinned
	k.tier.SibMemoHits += s.SibMemoHits
	k.tier.SolverHits += s.SolverHits
	k.tier.SolverMisses += s.SolverMisses
	k.tier.SolverEvictions += s.SolverEvictions
	k.tier.SolverResizes += s.SolverResizes
}

// traced runs traced passes until the measured time is up, each after an
// untraced repeat of its analysis calls. Counts come from the first
// pass, so they repeat exactly; times are medians over the passes.
func traced(cfg config, w *workload) (*outcome, error) {
	t := &tracer{cfg: cfg, progs: w.programs(cfg.seed), rec: recorder{epoch: time.Now()}}
	if cfg.plant {
		plantWrongLabel(t.progs)
	}
	// One uncounted untraced pass first, so the heap and caches are as
	// warm for the first measured pair as for the later ones.
	if _, _, err := t.untracedPass(); err != nil {
		return nil, err
	}
	var passes []map[string]float64
	for start := time.Now(); len(passes) == 0 || time.Since(start) < cfg.seconds; {
		untraced, verdicts, err := t.untracedPass()
		if err != nil {
			return nil, err
		}
		k, err := t.pass()
		if err != nil {
			return nil, err
		}
		k.untraced, k.untracedVerdicts = untraced, verdicts
		passes = append(passes, k.metrics(t.rec.selfTimes(k.from)))
	}

	out := &outcome{defs: perLayer, values: map[string]float64{}, notes: map[string]string{},
		attempted: t.attempted, failed: t.failed}
	for _, d := range perLayer {
		out.notes[d.name] = "-> " + d.moves
		if d.repeatsExactly() {
			out.values[d.name] = passes[0][d.name]
			continue
		}
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p[d.name]
		}
		out.values[d.name] = medianF(vals)
	}

	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
	if err := t.rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("  %d traced passes at width 1; %d spans in %s\n", len(passes), len(t.rec.spans), path)
	return out, nil
}

// untracedPass repeats the traced pass's analysis calls — compile, the
// static pass, RunStream on a fresh tier — with no spans, for the
// tracing overhead.
func (t *tracer) untracedPass() (time.Duration, int, error) {
	verdicts := 0
	start := time.Now()
	for i := range t.progs {
		p := &t.progs[i]
		prog, err := compile(p)
		if err != nil {
			return 0, 0, err
		}
		opts := tracedOptions()
		opts.StaticFacts = sa.Analyze(prog)
		opts.Tier = core.NewCacheTier(opts)
		end := opts.Tier.BeginRun()
		_, err = core.RunStream(context.Background(), prog, p.args, p.inputs, opts,
			func(_ *race.Report, v *core.Verdict, _ error) bool {
				if v != nil {
					verdicts++
				}
				return true
			})
		end()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return time.Since(start), verdicts, nil
}

func (t *tracer) pass() (*tally, error) {
	k := &tally{from: len(t.rec.spans)}
	dir, err := tierDir(t.cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := dstore.Open(filepath.Join(dir, "codec"))
	if err != nil {
		return nil, err
	}
	for i := range t.progs {
		if err := t.analyze(i, store, k); err != nil {
			return nil, err
		}
	}
	ents, err := os.ReadDir(store.Path())
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		k.tierBytes += info.Size()
	}
	if err := t.service(filepath.Join(dir, "service"), k); err != nil {
		return nil, err
	}
	return k, nil
}

func objectName(prog *bytecode.Program, rep *race.Report) string {
	if rep.Key.Space == vm.SpaceGlobal {
		return prog.Globals[rep.Key.Obj].Name
	}
	return "heap object"
}

// analyze traces program i through the in-process layers.
func (t *tracer) analyze(i int, store *dstore.Dir, k *tally) error {
	p := &t.progs[i]
	id := t.nextID()
	ctx := context.Background()
	root := t.rec.begin("analysis", -1, id)
	defer t.rec.end(root)

	sp := t.rec.begin("bytecode.compile", root, id)
	prog, err := compile(p)
	k.compile += t.rec.end(sp)
	if err != nil {
		return err
	}
	sp = t.rec.begin("sa.analyze", root, id)
	facts := sa.Analyze(prog)
	k.lint += t.rec.end(sp)

	// Detection and classification, streamed: detection is the run up to
	// the first yield less that race's own classification time, and each
	// later gap between yields is one race's classification.
	opts := tracedOptions()
	opts.StaticFacts = facts
	tier := core.NewCacheTier(opts)
	opts.Tier = tier
	var got []verdictID
	var yields []time.Time
	var firstClassify time.Duration
	raceErrs := 0
	run := t.rec.begin("core.run", root, id)
	endRun := tier.BeginRun()
	res, err := core.RunStream(ctx, prog, p.args, p.inputs, opts, func(rep *race.Report, v *core.Verdict, cerr error) bool {
		if len(yields) == 0 && v != nil {
			firstClassify = v.Stats.Duration
		}
		yields = append(yields, time.Now())
		if cerr != nil {
			raceErrs++
			return true
		}
		got = append(got, verdictID{objectName(prog, rep), portend.Class(v.Class.String())})
		k.addStats(v.Stats)
		return true
	})
	endRun()
	k.run += t.rec.end(run)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	miss, attempted := p.misses(got, raceErrs)
	t.failed += miss
	t.attempted += attempted
	k.verdicts += len(got)
	rs := t.rec.spans[run]
	detectEnd := rs.end
	if len(yields) > 0 {
		detectEnd = yields[0].Add(-firstClassify)
	}
	if detectEnd.Before(rs.start) {
		detectEnd = rs.start
	}
	t.rec.add("race.detect", run, id, rs.start, detectEnd)
	k.detect += detectEnd.Sub(rs.start)
	for prev, j := detectEnd, 0; j < len(yields); prev, j = yields[j], j+1 {
		t.rec.add("core.classify", run, id, prev, yields[j])
		k.classify += yields[j].Sub(prev)
	}
	det := res.Detection
	k.steps += int(det.Run.Steps)
	k.reports += len(det.Reports)
	k.addTier(tier.Stats())

	sp = t.rec.begin("vm.exec", root, id)
	target := portend.Compiled(p.name, prog).WithArgs(p.args...).WithInputs(p.inputs...)
	er, err := portend.Exec(ctx, target, opts.RunBudget)
	t.rec.end(sp)
	if err != nil {
		return fmt.Errorf("%s: exec: %w", p.name, err)
	}
	k.execTime += er.Duration
	k.execSteps += er.Steps

	// Algorithm 1 alone: the Record/Replay-Analyzer on a cache-off
	// classifier, once per detected race.
	plain := tracedOptions()
	plain.NoCache = true
	for _, rep := range det.Reports {
		sp := t.rec.begin("core.alg1", root, id)
		rr, err := core.New(prog, plain).RecordReplayAnalyzer(rep, det.Trace)
		k.alg1 += t.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: Algorithm 1: %w", p.name, err)
		}
		k.alg1Races++
		if rr.ReplayFailed {
			k.unenforceable++
		}
	}

	// The durable codec on the tier this analysis filled.
	key := fmt.Sprintf("p%d", i)
	sp = t.rec.begin("dstore.snapshot", root, id)
	snap := tier.Snapshot()
	k.snapshot += t.rec.end(sp)
	sp = t.rec.begin("dstore.write", root, id)
	err = store.Write(key, snap)
	k.write += t.rec.end(sp)
	if err != nil {
		return err
	}
	var back core.TierSnapshot
	sp = t.rec.begin("dstore.load", root, id)
	err = store.Load(key, &back)
	k.load += t.rec.end(sp)
	if err != nil {
		return err
	}
	sp = t.rec.begin("dstore.restore", root, id)
	err = core.NewCacheTier(tracedOptions()).Restore(&back)
	k.restore += t.rec.end(sp)
	if err != nil {
		return fmt.Errorf("%s: restore: %w", p.name, err)
	}
	k.analyses++
	return nil
}

// service traces the three service passes from one client. A request's
// span gets a remote.run child as long as the run the daemon reports
// (DoneInfo.DurationNs: run and flush), so the request's self time is
// the service overhead.
func (t *tracer) service(dir string, k *tally) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	k.perPass = map[string][]time.Duration{}
	cold := make([][]string, len(t.progs))
	sequential := func(c *server.Client) []reply {
		out := make([]reply, len(t.progs))
		for i := range t.progs {
			id := t.nextID()
			sp := t.rec.begin("server.request", -1, id)
			out[i] = submit(c, &t.progs[i])
			t.rec.end(sp)
			if dn := out[i].done; dn != nil && dn.DurationNs > 0 {
				end := t.rec.spans[sp].end
				t.rec.add("remote.run", sp, id, end.Add(-time.Duration(dn.DurationNs)), end)
			}
		}
		return out
	}
	return servicePasses(d, dir, sequential, func(pass string, replies []reply, d *daemon) error {
		for i, r := range replies {
			p := &t.progs[i]
			miss, attempted := r.misses(p)
			t.failed += miss
			t.attempted += attempted
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s (%s pass): %v\n", p.name, pass, r.err)
				continue
			}
			if pass == "cold" {
				cold[i] = r.stream()
			} else {
				t.failed += streamDiffs(cold[i], r.stream())
			}
			k.perPass[pass] = append(k.perPass[pass], r.latency)
			k.overhead += r.latency - time.Duration(r.done.DurationNs)
			k.requests++
			if pass == "warm" && !r.done.StaticClean {
				k.warmRan++
				if r.done.WarmStart {
					k.warm++
				}
			}
		}
		if pass == "cold" {
			return nil // the warm pass reads this daemon's cumulative counters
		}
		flushes, err := d.counter("portend_tier_flushes_total")
		if err != nil {
			return err
		}
		k.flushes += flushes
		if pass == "restored" {
			restores, err := d.counter("portend_tier_restores_total")
			if err != nil {
				return err
			}
			k.restores += restores
		}
		return nil
	})
}

// metrics turns one pass's tally and self times into the per-layer
// metrics.
func (k *tally) metrics(self map[string]time.Duration) map[string]float64 {
	per := func(d time.Duration) float64 { return ms(d) / float64(max(k.analyses, 1)) }
	ratio := func(hits, misses int) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	ts := k.tier
	m := map[string]float64{
		"bytecode.compile_ms":    per(k.compile),
		"sa.analyze_ms":          per(k.lint),
		"race.detect_ms":         per(k.detect),
		"race.steps":             float64(k.steps),
		"race.reports":           float64(k.reports),
		"vm.ns_per_instr":        float64(k.execTime.Nanoseconds()) / float64(max(k.execSteps, 1)),
		"vm.clone_allocs":        float64(k.cloneAllocs),
		"vm.clone_bytes":         float64(k.cloneBytes),
		"vm.fused_ops":           float64(k.fusedOps),
		"core.classify_ms":       per(k.classify),
		"core.alg1_ms":           ms(k.alg1) / float64(max(k.alg1Races, 1)),
		"core.unenforceable":     float64(k.unenforceable),
		"explore.items_run":      float64(k.itemsRun),
		"explore.pruned":         float64(k.pruned),
		"explore.prune_ratio":    ratio(k.pruned, k.itemsRun),
		"explore.primaries":      float64(k.primaries),
		"explore.alternates":     float64(k.alternates),
		"explore.branches":       float64(k.branches),
		"explore.truncated":      float64(k.truncated),
		"ckpt.hit_ratio":         ratio(ts.CheckpointHits, ts.CheckpointMisses),
		"ckpt.thinned":           float64(ts.CheckpointThinned),
		"ckpt.sym_hit_ratio":     ratio(ts.SymHits, ts.SymMisses),
		"ckpt.sym_thinned":       float64(ts.SymThinned),
		"ckpt.sibling_memo_hits": float64(ts.SibMemoHits),
		"solver.queries":         float64(ts.SolverHits + ts.SolverMisses),
		"solver.hit_ratio":       ratio(ts.SolverHits, ts.SolverMisses),
		"solver.evictions":       float64(ts.SolverEvictions),
		"solver.resizes":         float64(ts.SolverResizes),
		"dstore.snapshot_ms":     per(k.snapshot),
		"dstore.write_ms":        per(k.write),
		"dstore.bytes":           float64(k.tierBytes) / float64(max(k.analyses, 1)),
		"dstore.load_ms":         per(k.load),
		"dstore.restore_ms":      per(k.restore),
		"dstore.cold_rerun_ms":   per(k.run),
		"server.overhead_ms":     ms(k.overhead) / float64(max(k.requests, 1)),
		"server.cold_p50_ms":     ms(median(k.perPass["cold"])),
		"server.warm_p50_ms":     ms(median(k.perPass["warm"])),
		"server.restored_p50_ms": ms(median(k.perPass["restored"])),
		"server.warm_frac":       float64(k.warm) / float64(max(k.warmRan, 1)),
		"server.flushes":         float64(k.flushes),
		"server.restores":        float64(k.restores),
		"trace.traced_races_per_s": float64(k.verdicts) /
			(k.compile + k.lint + k.run).Seconds(),
		"trace.untraced_races_per_s": float64(k.untracedVerdicts) / k.untraced.Seconds(),
	}
	m["trace.overhead_frac"] = 1 - m["trace.traced_races_per_s"]/m["trace.untraced_races_per_s"]
	for _, l := range layers {
		m["self."+l+"_ms"] = ms(self[l])
	}
	return m
}
