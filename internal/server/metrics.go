package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// metrics aggregates service-level counters; cache-tier and queue
// figures are sampled from their owners at scrape time rather than
// double-counted here.
type metrics struct {
	start     time.Time
	requests  atomic.Int64 // analyses admitted and started
	completed atomic.Int64 // analyses that ran to a terminal event
	badReqs   atomic.Int64 // rejected before admission (400)
	cancelled atomic.Int64 // runs ended by client disconnect/cancel

	lintRejections  atomic.Int64 // rejected at admission by static lint (422)
	staticClean     atomic.Int64 // statically race-free fast-path answers
	prunedSchedules atomic.Int64 // worklist items the static prune skipped
	cloneAllocs     atomic.Int64 // allocations spent on COW state snapshots

	runPanics   atomic.Int64 // runs ended by the panic recover boundary
	disconnects atomic.Int64 // requests whose client went away mid-flight

	tierRestores    atomic.Int64 // tiers imported from the durable store
	tierLoadErrors  atomic.Int64 // durable loads that failed (quarantine/cold)
	tierFlushes     atomic.Int64 // tier snapshots persisted
	tierFlushErrors atomic.Int64 // tier snapshot writes that failed
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// handleMetrics renders the Prometheus text exposition format
// (version 0.0.4) by hand — the service depends only on the standard
// library.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	g := func(name, help, typ string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}

	g("portend_uptime_seconds", "Seconds since the server started.", "gauge",
		int64(time.Since(s.metrics.start).Seconds()))
	g("portend_requests_total", "Analysis requests admitted and started.", "counter",
		s.metrics.requests.Load())
	g("portend_requests_completed_total", "Analyses that reached a terminal event.", "counter",
		s.metrics.completed.Load())
	g("portend_requests_bad_total", "Requests rejected as malformed (HTTP 400).", "counter",
		s.metrics.badReqs.Load())
	g("portend_requests_cancelled_total", "Analyses ended early by client disconnect or cancel.", "counter",
		s.metrics.cancelled.Load())
	g("portend_lint_rejections_total", "Submissions rejected at admission by an error-severity static lint (HTTP 422).", "counter",
		s.metrics.lintRejections.Load())
	g("portend_static_clean_fastpath_total", "Statically race-free submissions answered without taking an analysis slot.", "counter",
		s.metrics.staticClean.Load())
	g("portend_pruned_schedules_total", "Multi-path worklist items skipped by the static dead-item prune.", "counter",
		s.metrics.prunedSchedules.Load())
	g("portend_state_clone_allocs_total", "Allocations spent on copy-on-write VM state snapshots (State.Clone).", "counter",
		s.metrics.cloneAllocs.Load())
	g("portend_run_panics_total", "Runs that panicked and were isolated by the recover boundary.", "counter",
		s.metrics.runPanics.Load())
	g("portend_disconnects_total", "Requests whose client disconnected mid-flight (queued or streaming).", "counter",
		s.metrics.disconnects.Load())
	g("portend_tier_restores_total", "Cache tiers restored from the durable store.", "counter",
		s.metrics.tierRestores.Load())
	g("portend_tier_load_errors_total", "Durable tier loads that failed verification or import (file quarantined or skipped).", "counter",
		s.metrics.tierLoadErrors.Load())
	g("portend_tier_flushes_total", "Tier snapshots persisted to the durable store.", "counter",
		s.metrics.tierFlushes.Load())
	g("portend_tier_flush_errors_total", "Tier snapshot writes that failed (warmth lost, request unaffected).", "counter",
		s.metrics.tierFlushErrors.Load())
	g("portend_draining", "1 while the server is draining for shutdown.", "gauge",
		boolGauge(s.draining.Load()))
	g("portend_requests_active", "Analyses holding a slot right now.", "gauge",
		s.dispatch.active.Load())
	g("portend_shed_total", "Requests shed with HTTP 429 at the hard queue bound.", "counter",
		s.dispatch.shed.Load())
	g("portend_degraded_total", "Runs admitted with a degraded exploration budget.", "counter",
		s.dispatch.degraded.Load())

	depths := s.dispatch.depths()
	tenants := make([]string, 0, len(depths))
	for t := range depths {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "# HELP portend_queue_depth Queued (admitted-but-waiting) requests per tenant.\n# TYPE portend_queue_depth gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "portend_queue_depth{tenant=%q} %d\n", t, depths[t])
	}

	nTiers, tierEvictions, tierBytes, agg := s.tiers.snapshot()
	g("portend_tiers", "Resident persistent cache tiers.", "gauge", nTiers)
	g("portend_tier_evictions_total", "Whole tiers evicted by the registry's LRU bound.", "counter", tierEvictions)
	g("portend_tier_bytes", "Measured memory footprint of all resident cache tiers.", "gauge", tierBytes)
	g("portend_tier_checkpoints", "Concrete replay checkpoints resident across tiers.", "gauge", agg.Checkpoints)
	g("portend_tier_checkpoint_hits_total", "Replays and explorations resumed from a tier's checkpoint store.", "counter", agg.CheckpointHits)
	g("portend_tier_checkpoint_thinned_total", "Concrete checkpoints dropped by store thinning.", "counter", agg.CheckpointThinned)
	g("portend_tier_solver_entries", "Solver memo entries resident across tiers.", "gauge", agg.SolverEntries)
	g("portend_tier_solver_hits_total", "Solver queries answered from a tier's memo.", "counter", agg.SolverHits)
	g("portend_tier_solver_evictions_total", "Solver memo entries evicted (LRU) across tiers.", "counter", agg.SolverEvictions)
}
