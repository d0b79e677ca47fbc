package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the smoke test keeps the two in step. For a per-layer
// metric, moves records which end-to-end metric it should move, on which
// workload — the prediction a change to that layer is held to.
type metricDef struct {
	name, unit string
	moves      string
}

// endToEnd are the metrics of the timed runs. error_frac is printed
// beside them but travels in the result's failed/attempted fields: it is
// 0 on every correct run, so it cannot carry a relative bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "races_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "first_verdict_p50_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

const (
	movesCompile  = "setup_s on every workload; latency_p50_ms on service-corpus (each request compiles twice)"
	movesLint     = "latency_p50_ms, first_verdict_p50_ms on service-corpus"
	movesDetect   = "races_per_s, first_verdict_p50_ms on long-trace"
	movesInterp   = "races_per_s on paper-suite and long-trace"
	movesClone    = "races_per_s, peak_rss_mb on long-trace"
	movesClassify = "races_per_s, latency_p50_ms, latency_p90_ms on paper-suite and long-trace"
	movesAlg1     = "races_per_s, latency_p90_ms on paper-suite; no change on long-trace"
	movesExplore  = "races_per_s on long-trace"
	movesCkpt     = "races_per_s on long-trace; warm-pass latency_p50_ms on service-corpus"
	movesSolver   = "races_per_s on long-trace (sym-prefix)"
	movesDstore   = "latency_p50_ms on service-corpus; no change in-process"
	movesServer   = "latency_p50_ms, error_frac on service-corpus"
	movesNone     = "none: attribution only, end-to-end metrics are untraced"
)

// perLayer are the metrics of the traced run. Times are per analysis
// (one program, or one request) unless named otherwise; self times are
// per pass over the workload's programs; counts are for one pass.
var perLayer = []metricDef{
	{"bytecode.compile_ms", "ms", movesCompile},
	{"sa.analyze_ms", "ms", movesLint},
	{"race.detect_ms", "ms", movesDetect},
	{"race.steps", "count", movesDetect},
	{"race.reports", "count", movesDetect},
	{"vm.ns_per_instr", "ns", movesInterp},
	{"vm.clone_allocs", "count", movesClone},
	{"vm.clone_bytes", "B", movesClone},
	{"vm.fused_ops", "count", "races_per_s on long-trace; no change on paper-suite (fusion is off under SpinTrack)"},
	{"core.classify_ms", "ms", movesClassify},
	{"core.alg1_ms", "ms", movesAlg1},
	{"core.unenforceable", "count", movesAlg1},
	{"explore.items_run", "count", movesExplore},
	{"explore.pruned", "count", movesExplore},
	{"explore.prune_ratio", "frac", movesExplore},
	{"explore.primaries", "count", movesExplore},
	{"explore.alternates", "count", movesExplore},
	{"explore.branches", "count", movesExplore},
	{"explore.truncated", "count", movesExplore},
	{"ckpt.hit_ratio", "frac", movesCkpt},
	{"ckpt.thinned", "count", movesCkpt},
	{"ckpt.sym_hit_ratio", "frac", movesCkpt},
	{"ckpt.sym_thinned", "count", movesCkpt},
	{"ckpt.sibling_memo_hits", "count", movesCkpt},
	{"solver.queries", "count", movesSolver},
	{"solver.hit_ratio", "frac", movesSolver},
	{"solver.evictions", "count", movesSolver},
	{"solver.resizes", "count", movesSolver},
	{"dstore.snapshot_ms", "ms", movesDstore},
	{"dstore.write_ms", "ms", movesDstore},
	{"dstore.bytes", "B", movesDstore},
	{"dstore.load_ms", "ms", movesDstore},
	{"dstore.restore_ms", "ms", movesDstore},
	{"dstore.cold_rerun_ms", "ms", movesDstore},
	{"server.overhead_ms", "ms", movesServer},
	{"server.cold_p50_ms", "ms", movesServer},
	{"server.warm_p50_ms", "ms", movesServer},
	{"server.restored_p50_ms", "ms", movesServer},
	{"server.warm_frac", "frac", movesServer},
	{"server.flushes", "count", movesServer},
	{"server.restores", "count", movesServer},
	{"self.bench_ms", "ms", movesNone},
	{"self.bytecode_ms", "ms", movesCompile},
	{"self.sa_ms", "ms", movesLint},
	{"self.race_ms", "ms", movesDetect},
	{"self.core_ms", "ms", movesClassify},
	{"self.vm_ms", "ms", movesInterp},
	{"self.dstore_ms", "ms", movesDstore},
	{"self.server_ms", "ms", movesServer},
	{"self.remote_ms", "ms", movesServer},
	{"trace.untraced_races_per_s", "1/s", movesNone},
	{"trace.traced_races_per_s", "1/s", movesNone},
	{"trace.overhead_frac", "frac", movesNone},
}

// repeatsExactly reports whether a per-layer metric is a deterministic
// tally (taken from the first traced pass) rather than a time (the
// median over all traced passes).
func (d metricDef) repeatsExactly() bool {
	switch d.unit {
	case "ms", "ns", "1/s":
		return false
	}
	return d.name != "trace.overhead_frac"
}
