package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dstore"
	"repro/internal/fault"
	"repro/portend"
)

// Config sizes the service. Zero values mean the documented defaults.
type Config struct {
	// Slots is the number of analyses that run concurrently (default
	// GOMAXPROCS). Everything past it queues.
	Slots int

	// QueueSoft is the per-tenant queue depth beyond which admitted
	// requests run with a degraded exploration budget (default 2);
	// QueueHard is the depth at which requests are shed with 429
	// (default 8). Bounded queues plus shedding keep memory and latency
	// bounded under overload — the service degrades verdict coarseness
	// before it degrades availability.
	QueueSoft int
	QueueHard int

	// MemoryBudgetMB bounds the persistent cache tiers collectively
	// (default 256), enforced against each tier's measured footprint
	// (core.CacheTier.MemBytes). MaxTiers is a hard count bound on top
	// of the byte budget; it defaults from the budget at estTierMB per
	// tier, and in practice it is the bound that binds (see estTierMB).
	MemoryBudgetMB int
	MaxTiers       int

	// DefaultParallel is the pool width for requests that do not set
	// one (default: the engine default, GOMAXPROCS).
	DefaultParallel int

	// DataDir, when set, makes cache tiers durable: each tier's
	// checkpoint positions and counters are written to one checksummed
	// file under the directory (see internal/dstore) after its runs
	// finish and again on drain, and are restored lazily on the first
	// request for its key after a restart — repeat submissions then
	// report warmStart across process lifetimes, with byte-identical
	// verdicts. Corrupt or version-skewed files are quarantined and
	// logged and the tier starts cold; durability failures never fail a
	// request.
	DataDir string

	// RunTimeout, when positive, is the per-run watchdog: an analysis
	// exceeding it is cancelled through its context and the stream ends
	// with a terminal error event after whatever verdicts were already
	// sent. Zero disables the watchdog.
	RunTimeout time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight runs
	// before flushing tiers and returning (default 10s).
	DrainTimeout time.Duration
}

// estTierMB is the per-tier memory estimate that derives the default
// tier-count bound from MemoryBudgetMB: 256 MB / 8 MB = 32 tiers. It
// dates from tiers that held checkpoint states (64 checkpoints × ~2
// stores × ~50KB state clones, plus a solver memo the engine no longer
// keeps, rounded up). A tier now holds at most 64 positions, 512 bytes,
// so the rationale no longer holds; the bound stays until the verdict
// cache replaces tiers (ROADMAP item 3). It is what evicts: the
// 63-program labeled corpus's cold pass evicts 31 tiers by count, and
// with a data dir every request of a warm pass reloads its tier from
// disk (63 portend_tier_restores_total per pass). Lifting it trades
// memory for warm-pass latency: on a 2-core Xeon, serving that corpus
// with the bound lifted raised peak RSS about 9% and cut p50 request
// latency about a quarter.
const estTierMB = 8

func (c Config) withDefaults() Config {
	if c.Slots < 1 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.QueueSoft < 1 {
		c.QueueSoft = 2
	}
	if c.QueueHard < 1 {
		c.QueueHard = 8
	}
	if c.MemoryBudgetMB < 1 {
		c.MemoryBudgetMB = 256
	}
	if c.MaxTiers < 1 {
		c.MaxTiers = c.MemoryBudgetMB / estTierMB
		if c.MaxTiers < 1 {
			c.MaxTiers = 1
		}
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is the portendd service: admission control in front of the
// portend analyzer, persistent cache tiers behind it, optionally backed
// by a durable on-disk store.
type Server struct {
	cfg      Config
	dispatch *dispatcher
	tiers    *tierRegistry
	metrics  metrics

	store    *dstore.Dir  // nil = in-memory tiers only
	draining atomic.Bool  // Drain called; no new work admitted
	inflight atomic.Int64 // requests inside handleAnalyze
}

// New builds a Server from the config. An unusable DataDir is logged
// and the server runs without durability — by contract, durability
// failures cost warmth across restarts, never availability.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		dispatch: newDispatcher(cfg.Slots, cfg.QueueSoft, cfg.QueueHard),
		tiers:    newTierRegistry(cfg.MaxTiers, int64(cfg.MemoryBudgetMB)<<20),
		metrics:  metrics{start: time.Now()},
	}
	if cfg.DataDir != "" {
		d, err := dstore.Open(cfg.DataDir)
		if err != nil {
			log.Printf("portendd: data dir unavailable, running without durability: %v", err)
		} else {
			s.store = d
			if keys, err := d.Scan(); err != nil {
				log.Printf("portendd: data dir scan: %v", err)
			} else if len(keys) > 0 {
				log.Printf("portendd: data dir %s: %d durable tier(s) indexed", cfg.DataDir, len(keys))
			}
		}
	}
	return s
}

// Handler returns the service's HTTP routes: POST /v1/analyze (NDJSON
// verdict stream), GET /metrics (Prometheus text), GET /healthz (pure
// liveness — 200 for as long as the process serves), GET /readyz
// (readiness — 503 while draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	return mux
}

// Drain stops admission (new requests get 503 with Draining set, and
// /readyz turns 503), waits up to the configured DrainTimeout for
// in-flight runs to finish, then flushes every idle tier to the durable
// store. Call before shutting the HTTP server down so a SIGTERM loses
// no warmth.
func (s *Server) Drain() {
	s.draining.Store(true)
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	s.flushAll()
}

// tierFor fetches the tier for key, restoring it from the durable store
// on first sight — which covers both post-restart warmth and reload
// after an LRU eviction.
func (s *Server) tierFor(key tierKey) *core.CacheTier {
	tier, created := s.tiers.get(key)
	if created && s.store != nil {
		s.restoreTier(key, tier)
	}
	return tier
}

// restoreTier loads and imports the durable snapshot for key, if one
// exists. A file that fails verification or import is quarantined and
// the tier stays cold; transient read failures just stay cold.
func (s *Server) restoreTier(key tierKey, tier *core.CacheTier) {
	hk := hex.EncodeToString(key[:])
	if fault.Fire(fault.TierLoadDelay) {
		// Chaos hook: hold the restore open so a test can kill or drain
		// the daemon mid-load.
		time.Sleep(250 * time.Millisecond)
	}
	var snap core.TierSnapshot
	err := s.store.Load(hk, &snap)
	switch {
	case err == nil:
	case errors.Is(err, dstore.ErrNotFound):
		return
	case errors.Is(err, dstore.ErrBadFile):
		s.metrics.tierLoadErrors.Add(1)
		log.Printf("portendd: tier %s: %v — quarantined, starting cold", hk[:12], err)
		if qerr := s.store.Quarantine(hk); qerr != nil {
			log.Printf("portendd: tier %s: %v", hk[:12], qerr)
		}
		return
	default:
		s.metrics.tierLoadErrors.Add(1)
		log.Printf("portendd: tier %s: load: %v — starting cold", hk[:12], err)
		return
	}
	if err := tier.Restore(&snap); err != nil {
		s.metrics.tierLoadErrors.Add(1)
		log.Printf("portendd: tier %s: restore: %v — quarantined, starting cold", hk[:12], err)
		if qerr := s.store.Quarantine(hk); qerr != nil {
			log.Printf("portendd: tier %s: %v", hk[:12], qerr)
		}
		return
	}
	s.metrics.tierRestores.Add(1)
}

// flushTier persists the tier's snapshot unless a run is active on it —
// the last finisher on a busy tier takes the flush instead. Write
// failures are logged and counted, never surfaced to the request.
func (s *Server) flushTier(key tierKey, tier *core.CacheTier) {
	if s.store == nil {
		return
	}
	snap, ok := tier.SnapshotIfIdle()
	if !ok {
		return
	}
	hk := hex.EncodeToString(key[:])
	if err := s.store.Write(hk, snap); err != nil {
		s.metrics.tierFlushErrors.Add(1)
		log.Printf("portendd: flush tier %s: %v", hk[:12], err)
		return
	}
	s.metrics.tierFlushes.Add(1)
}

// flushAll persists every resident idle tier (drain path).
func (s *Server) flushAll() {
	if s.store == nil {
		return
	}
	s.tiers.each(func(key tierKey, t *core.CacheTier) { s.flushTier(key, t) })
}

// TenantHeader names the request header carrying the tenant identity;
// absent, the request lands in the "default" tenant's queue.
const TenantHeader = "X-Portend-Tenant"

// maxRequestBody bounds the decoded request (PIL sources are small;
// 8MB is far above any real submission).
const maxRequestBody = 8 << 20

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Error:    "portendd: draining for shutdown",
			Draining: true,
		})
		return
	}

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		s.metrics.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, ErrorBody{Error: "bad request: " + err.Error()})
		return
	}
	if err := req.Validate(); err != nil {
		s.metrics.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "default"
	}

	ctx := r.Context()
	opts := s.optionsFor(&req)
	target := req.Target()

	// One disconnect is one counter tick no matter how it is observed
	// (write failure on the stream, or the request context dying).
	disconnected := false
	markDisc := func() {
		if !disconnected {
			disconnected = true
			s.metrics.disconnects.Add(1)
		}
	}

	// Static admission (before taking a slot or touching a tier): resolve
	// the submission once — one compile plus its static-analysis facts —
	// and short-circuit the two cases a dynamic run cannot improve on. A
	// program with an error-severity lint faults on every execution of
	// the flagged site: reject it with the diagnostics instead of burning
	// a slot reproducing the fault. A statically race-free program cannot
	// yield a single race report: answer the empty verdict stream
	// immediately. Otherwise the admitted run analyzes the program
	// compiled here, with these facts. Target-resolution failures fall
	// through so the dynamic path reports them exactly as before.
	if lr, err := portend.Lint(target); err == nil {
		facts := lr.Facts()
		if bad := facts.ErrorLints(); len(bad) > 0 {
			s.metrics.lintRejections.Add(1)
			body := ErrorBody{Error: "static analysis: program faults on every execution of the flagged synchronization"}
			for _, l := range bad {
				body.Lint = append(body.Lint, LintIssue{
					Rule: l.Rule, Severity: l.Severity, Fn: l.Fn, Line: l.Line, Msg: l.Msg,
				})
			}
			writeError(w, http.StatusUnprocessableEntity, body)
			return
		}
		if facts.RaceFree {
			s.metrics.requests.Add(1)
			s.metrics.staticClean.Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			_ = json.NewEncoder(w).Encode(Event{Type: EventDone, Done: &DoneInfo{
				Target:      target.Name(),
				StaticClean: true,
			}})
			s.metrics.completed.Add(1)
			return
		}
		target = lr.Compiled()
		opts.StaticFacts = facts
	}

	release, degraded, err := s.dispatch.admit(ctx, tenant)
	if err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, ErrorBody{
				Error:      err.Error(),
				Overloaded: true,
				Tenant:     oe.tenant,
				QueueDepth: oe.depth,
			})
			return
		}
		// Context ended while queued; the client is gone.
		s.metrics.cancelled.Add(1)
		markDisc()
		return
	}
	defer release()
	s.metrics.requests.Add(1)

	var deg *DegradedInfo
	if degraded {
		opts = degradeOptions(opts)
		deg = &DegradedInfo{Mp: opts.Mp, Ma: opts.Ma}
	}

	// The tier key hashes the effective options, so degraded runs get a
	// tier of their own — a coarser run keeps checkpoints where its own
	// exploration wanted them, which would not warm a full-budget run.
	key := keyFor(&req, opts)
	tier := s.tierFor(key)
	before := tier.Stats()
	endRun := tier.BeginRun()
	runEnded := false
	endOnce := func() {
		if !runEnded {
			runEnded = true
			endRun()
		}
	}
	defer endOnce()
	opts.Tier = tier

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			markDisc()
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if deg != nil {
		if !emit(Event{Type: EventDegraded, Degraded: deg}) {
			return
		}
	}

	// Per-run watchdog: a positive RunTimeout cancels the run through
	// the same context plumbing a client disconnect uses, so the stream
	// ends with a terminal error after the verdicts already delivered.
	runCtx := ctx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}

	a := portend.New(portend.WithEngineOptions(opts))
	start := time.Now()
	done := DoneInfo{Target: target.Name(), Degraded: degraded, WarmStart: before.Warm()}
	var (
		panicked    bool
		panicEv     Event
		aborted     bool // stream dead; nothing more can be sent
		terminalErr bool // terminal error event already emitted
	)
	// The run itself executes under a recover boundary: a panic anywhere
	// in the engine becomes a typed terminal event on this stream, never
	// a daemon crash, and poisons only this run's tier.
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				panicEv = Event{
					Type:    EventError,
					Message: fmt.Sprintf("internal panic: %v", p),
					Panic:   true,
					Stack:   string(debug.Stack()),
				}
			}
		}()
		if fault.Fire(fault.RunPanic) {
			panic("injected run panic (fault " + fault.RunPanic + ")")
		}
		for v, err := range a.Analyze(runCtx, target) {
			if err != nil {
				var re *portend.RaceError
				if errors.As(err, &re) {
					done.Errors++
					if !emit(Event{Type: EventRaceError, Race: re.RaceID, Message: re.Err.Error()}) {
						aborted = true
						return
					}
					continue
				}
				terminalErr = true
				if ctx.Err() != nil {
					// The client's context died — a watchdog timeout leaves
					// the parent context alive and is not a disconnect.
					s.metrics.cancelled.Add(1)
					markDisc()
				}
				emit(Event{Type: EventError, Message: err.Error()})
				return
			}
			raw, err := json.Marshal(v)
			if err != nil {
				terminalErr = true
				emit(Event{Type: EventError, Message: "marshal verdict: " + err.Error()})
				return
			}
			done.Verdicts++
			if n := v.Stats.PrunedSchedules; n > 0 {
				done.PrunedSchedules += n
				s.metrics.prunedSchedules.Add(int64(n))
			}
			if n := v.Stats.CloneAllocs; n > 0 {
				done.CloneAllocs += n
				s.metrics.cloneAllocs.Add(n)
			}
			if n := v.Stats.CloneBytes; n > 0 {
				done.CloneBytes += n
			}
			ev := Event{Type: EventVerdict, Verdict: raw, Summary: v.String()}
			if req.Verbose {
				ev.Report = v.DebugReport()
			}
			if !emit(ev) {
				s.metrics.cancelled.Add(1)
				aborted = true
				return
			}
		}
	}()
	endOnce()

	if panicked {
		// Isolate the blast radius: evict this run's tier and its
		// durable file, so the next identical submission starts cold.
		// The admission slot is freed by the deferred release; every
		// other tenant's run is untouched.
		s.metrics.runPanics.Add(1)
		s.tiers.evict(key)
		if s.store != nil {
			if err := s.store.Remove(hex.EncodeToString(key[:])); err != nil {
				log.Printf("portendd: %v", err)
			}
		}
		log.Printf("portendd: run panic (tier %x, tenant %q): %s",
			key[:6], tenant, panicEv.Message)
		emit(panicEv)
		s.metrics.completed.Add(1)
		return
	}

	// Whatever positions the run kept are worth keeping even if the
	// stream died or the run ended in a terminal error — persist the
	// warmth.
	s.flushTier(key, tier)

	if aborted {
		return
	}
	if terminalErr {
		s.metrics.completed.Add(1)
		return
	}

	done.Races = done.Verdicts + done.Errors
	done.DurationNs = time.Since(start).Nanoseconds()
	done.Tier = tierInfo(tier)
	emit(Event{Type: EventDone, Done: &done})
	s.metrics.completed.Add(1)
}

// optionsFor resolves a request's options against the service
// defaults.
func (s *Server) optionsFor(req *Request) core.Options {
	opts := core.DefaultOptions()
	opts.Parallel = s.cfg.DefaultParallel
	if ro := req.Options; ro != nil {
		if ro.Mp > 0 {
			opts.Mp = ro.Mp
		}
		if ro.Ma > 0 {
			opts.Ma = ro.Ma
		}
		if ro.SymbolicInputs > 0 {
			opts.SymbolicInputs = ro.SymbolicInputs
		}
		if ro.Parallel > 0 {
			opts.Parallel = ro.Parallel
		}
		if ro.MaxForks > 0 {
			opts.MaxForks = ro.MaxForks
		}
		if ro.RunBudget > 0 {
			opts.RunBudget = ro.RunBudget
		}
		if ro.EnforceBudget > 0 {
			opts.EnforceBudget = ro.EnforceBudget
		}
		if ro.Seed != nil {
			opts.Seed, opts.SeedSet = *ro.Seed, true
		}
	}
	return opts
}

// degradeOptions is the soft-shed budget: coarser multi-path and
// multi-schedule bounds that still produce verdicts for every race,
// just with fewer witnesses (a smaller k) — the paper's own knobs for
// trading coverage against time.
func degradeOptions(opts core.Options) core.Options {
	if opts.Mp > 2 {
		opts.Mp = 2
	}
	opts.Ma = 1
	return opts
}

func tierInfo(t *core.CacheTier) TierInfo {
	s := t.Stats()
	return TierInfo{
		Runs:           t.Runs(),
		Checkpoints:    s.Checkpoints,
		CheckpointHits: s.CheckpointHits,
	}
}

func writeError(w http.ResponseWriter, code int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
