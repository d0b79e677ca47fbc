// Command portendd is the long-lived Portend analysis service: an HTTP
// daemon that accepts many concurrent analysis submissions, streams
// verdicts back as NDJSON, and keeps per-submission persistent cache
// tiers so repeat analyses of the same program start warm (replay
// checkpoints survive across requests). With -data-dir the tiers are
// also durable: each is serialized to a checksummed on-disk file and
// restored lazily after a restart, so warmth survives crashes and
// redeploys.
//
// Usage:
//
//	portendd [-addr :7811] [-slots N] [-queue-soft 2] [-queue-hard 8]
//	         [-memory-budget-mb 256] [-max-tiers N] [-parallel N]
//	         [-data-dir DIR] [-run-timeout D] [-drain-timeout 10s]
//	         [-faults SPEC]
//
// Endpoints: POST /v1/analyze (NDJSON verdict stream), GET /metrics
// (Prometheus text), GET /healthz (liveness), GET /readyz (readiness —
// 503 while starting or draining). Tenants identify themselves with the
// X-Portend-Tenant header; admission is round-robin fair across
// tenants, with per-tenant bounded queues that degrade budgets past the
// soft depth and shed with 429 at the hard depth. SIGTERM drains:
// in-flight runs finish (up to -drain-timeout), dirty tiers flush to
// -data-dir, then the listener closes. -faults (or PORTEND_FAULTS) arms
// internal/fault injection points for chaos testing. See
// docs/service.md and docs/operations.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dstore"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7811", "listen address")
	slots := flag.Int("slots", 0, "concurrent analyses (0 = GOMAXPROCS)")
	queueSoft := flag.Int("queue-soft", 2, "per-tenant queue depth beyond which runs use a degraded budget")
	queueHard := flag.Int("queue-hard", 8, "per-tenant queue depth at which requests are shed with 429")
	memBudget := flag.Int("memory-budget-mb", 256, "collective memory budget for persistent cache tiers (measured)")
	maxTiers := flag.Int("max-tiers", 0, "cache-tier count bound (0 = derive from -memory-budget-mb)")
	parallel := flag.Int("parallel", 0, "default per-request classification pool width (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "directory for durable cache tiers (empty = in-memory only)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run watchdog; runs past it end with a terminal error event (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight runs on SIGTERM before flushing tiers")
	faults := flag.String("faults", "", "fault-injection spec, e.g. dstore.write:1,run.panic:* (also PORTEND_FAULTS)")
	flag.Parse()

	if err := fault.FromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "portendd: %s: %v\n", fault.EnvVar, err)
		os.Exit(2)
	}
	if *faults != "" {
		if err := fault.Set(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "portendd: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	if spec := fault.Active(); spec != "" {
		fmt.Fprintf(os.Stderr, "portendd: fault injection armed: %s\n", spec)
	}

	if *dataDir != "" {
		// Fail fast on an unusable data dir: the operator asked for
		// durability, so a typo'd path should not silently run in-memory.
		if _, err := dstore.Open(*dataDir); err != nil {
			fmt.Fprintf(os.Stderr, "portendd: %v\n", err)
			os.Exit(1)
		}
	}

	srv := server.New(server.Config{
		Slots:           *slots,
		QueueSoft:       *queueSoft,
		QueueHard:       *queueHard,
		MemoryBudgetMB:  *memBudget,
		MaxTiers:        *maxTiers,
		DefaultParallel: *parallel,
		DataDir:         *dataDir,
		RunTimeout:      *runTimeout,
		DrainTimeout:    *drainTimeout,
	})

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "portendd: draining")
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "portendd: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "portendd: %v\n", err)
		os.Exit(1)
	}
}
