package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// tierFiles lists the live .tier files under dir.
func tierFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tier") {
			out = append(out, e.Name())
		}
	}
	return out
}

func metricValue(t *testing.T, base, name string) string {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestTierSurvivesRestart is the durability tentpole end to end: every
// workload and curated corpus program analyzed by one daemon instance is
// warm in the next instance sharing its data dir — warmStart on the
// done event, and verdicts byte-identical to the pre-restart run at
// pool widths 1 and 8.
func TestTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	type sub struct {
		name string
		req  Request
	}
	var subs []sub
	for _, w := range workloads.All() {
		subs = append(subs, sub{name: "workload/" + w.Name, req: Request{Workload: w.Name}})
	}
	for _, cp := range corpus.Curated() {
		req := Request{Source: cp.Source, Name: cp.Name}
		if cp.Args != nil {
			req.Args = cp.Args
		}
		if cp.Inputs != nil {
			req.Inputs = cp.Inputs
		}
		subs = append(subs, sub{name: "corpus/" + cp.Name, req: req})
	}

	// First life: analyze everything cold; per-run flushes persist each
	// tier, and Drain flushes whatever is left.
	s1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := &Client{Base: ts1.URL}
	coldLines := make(map[string][]string)
	coldDone := make(map[string]*DoneInfo)
	for _, sb := range subs {
		req := sb.req
		req.Options = &RequestOptions{Parallel: 1}
		lines, _, done := remoteVerdicts(t, c1, req)
		if done.WarmStart {
			t.Errorf("%s: cold first run claims warm start", sb.name)
		}
		coldLines[sb.name] = lines
		coldDone[sb.name] = done
	}
	s1.Drain()
	ts1.Close()
	if len(tierFiles(t, dir)) == 0 {
		t.Fatal("first life persisted no tier files")
	}

	// Second life: a fresh process image over the same data dir.
	s2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := &Client{Base: ts2.URL}
	for _, sb := range subs {
		first := coldDone[sb.name]
		// A statically-clean fast path never touches a tier; a run whose
		// checkpoint store ended empty has nothing to persist or restore.
		expectWarm := !first.StaticClean && first.Tier.Checkpoints > 0
		for _, width := range []int{1, 8} {
			req := sb.req
			req.Options = &RequestOptions{Parallel: width}
			lines, _, done := remoteVerdicts(t, c2, req)
			tag := fmt.Sprintf("%s width=%d", sb.name, width)
			assertSame(t, tag+" verdicts vs pre-restart", coldLines[sb.name], lines)
			if expectWarm && !done.WarmStart {
				t.Errorf("%s: not warm after restart (first life tier %+v)", tag, first.Tier)
			}
		}
	}

	// The canonical warm workload must observe actual cross-run reuse,
	// not just a nonempty tier: restored positions seed the replay.
	req := Request{Workload: "sqlite", Options: &RequestOptions{Parallel: 1}}
	_, _, again := remoteVerdicts(t, c2, req)
	delta := again.Tier.CheckpointHits - coldDone["workload/sqlite"].Tier.CheckpointHits
	if delta < 1 {
		t.Errorf("sqlite: no cross-restart checkpoint hits (first %+v, post-restart %+v)",
			coldDone["workload/sqlite"].Tier, again.Tier)
	}

	if v := metricValue(t, ts2.URL, "portend_tier_restores_total"); v == "0" || v == "" {
		t.Errorf("portend_tier_restores_total = %q, want > 0", v)
	}
}

// TestCorruptTierQuarantined pins the recovery path: a flipped byte in a
// tier file must cost warmth only — the daemon quarantines the file,
// logs, serves the submission cold, and produces the same verdicts.
func TestCorruptTierQuarantined(t *testing.T) {
	dir := t.TempDir()
	req := Request{Workload: "sqlite", Options: &RequestOptions{Parallel: 1}}

	s1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := &Client{Base: ts1.URL}
	wantLines, _, _ := remoteVerdicts(t, c1, req)
	ts1.Close()

	files := tierFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("tier files = %v, want exactly 1", files)
	}
	path := filepath.Join(dir, files[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := &Client{Base: ts2.URL}
	gotLines, _, done := remoteVerdicts(t, c2, req)
	if done.WarmStart {
		t.Error("corrupt tier still reported warm")
	}
	assertSame(t, "verdicts after quarantine", wantLines, gotLines)

	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if v := metricValue(t, ts2.URL, "portend_tier_load_errors_total"); v != "1" {
		t.Errorf("portend_tier_load_errors_total = %q, want 1", v)
	}
	// The cold rerun reflushed a good file under the live name.
	if got := tierFiles(t, dir); len(got) != 1 {
		t.Errorf("live tier files after recovery = %v, want 1", got)
	}
}

// TestShedRequestTouchesNoTier pins that a shed request never reaches
// the tier registry or the data dir: with the one slot held and the
// tenant queue at its hard depth, a submission whose tier file an
// earlier daemon wrote gets 429 without a tier being created, restored
// or evicted.
func TestShedRequestTouchesNoTier(t *testing.T) {
	dir := t.TempDir()
	shed := Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}}

	s1 := New(Config{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	remoteVerdicts(t, &Client{Base: ts1.URL}, shed)
	ts1.Close()
	if files := tierFiles(t, dir); len(files) != 1 {
		t.Fatalf("tier files = %v, want exactly 1", files)
	}

	s := New(Config{DataDir: dir, Slots: 1, QueueSoft: 1, QueueHard: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, Tenant: "t"}

	cancel, exited := startSlow(t, s, c, "t")
	defer func() { cancel(); <-exited }()

	// Fill the queue (depth 1 = hard bound) with another submission.
	qctx, qcancel := context.WithCancel(context.Background())
	queuedExited := make(chan struct{})
	go func() {
		defer close(queuedExited)
		_, _ = c.Analyze(qctx, Request{Workload: "sqlite"}, nil)
	}()
	defer func() { qcancel(); <-queuedExited }()
	deadline := time.Now().Add(10 * time.Second)
	for s.dispatch.depths()["t"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	tierMetrics := func() [3]string {
		return [3]string{
			metricValue(t, ts.URL, "portend_tiers"),
			metricValue(t, ts.URL, "portend_tier_restores_total"),
			metricValue(t, ts.URL, "portend_tier_evictions_total"),
		}
	}
	before := tierMetrics()
	if _, err := c.Analyze(context.Background(), shed, nil); !errors.As(err, new(*OverloadedError)) {
		t.Fatalf("want *OverloadedError, got %v", err)
	}
	if after := tierMetrics(); after != before {
		t.Errorf("shed request moved tiers/restores/evictions: %v -> %v", before, after)
	}
}

// rawEvents posts a request and decodes every NDJSON event.
func rawEvents(t *testing.T, base string, req Request) []Event {
	t.Helper()
	resp := postAnalyze(t, base, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Bytes())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return evs
}

// TestPanicIsolation pins the recover boundary: an injected panic in one
// run becomes a typed error event on that stream only — the concurrent
// tenant's run completes, the daemon keeps serving, the panic counter
// ticks, and the poisoned tier (memory and disk) is discarded so the
// next identical submission rebuilds cold.
func TestPanicIsolation(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	dir := t.TempDir()
	s := New(Config{Slots: 2, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	// Tenant B holds a slot mid-run before the fault is armed.
	cancelB, exitedB := startSlow(t, s, c, "b")
	defer func() { cancelB(); <-exitedB }()

	if err := fault.Set(fault.RunPanic + ":1"); err != nil {
		t.Fatal(err)
	}
	evs := rawEvents(t, ts.URL, Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}})
	last := evs[len(evs)-1]
	if last.Type != EventError || !last.Panic {
		t.Fatalf("terminal event = %+v, want panic error", last)
	}
	if last.Stack == "" || !strings.Contains(last.Message, "injected run panic") {
		t.Fatalf("panic event missing stack or message: %+v", last)
	}
	if len(tierFiles(t, dir)) != 0 {
		t.Errorf("poisoned tier left durable files: %v", tierFiles(t, dir))
	}

	// The daemon is unharmed: the same submission immediately succeeds,
	// cold, while tenant B is still running.
	done, err := c.Analyze(context.Background(), Request{Workload: "rw", Options: &RequestOptions{Parallel: 1}}, nil)
	if err != nil {
		t.Fatalf("post-panic run: %v", err)
	}
	if done.WarmStart {
		t.Error("post-panic run warm; poisoned tier survived eviction")
	}
	if v := metricValue(t, ts.URL, "portend_run_panics_total"); v != "1" {
		t.Errorf("portend_run_panics_total = %q, want 1", v)
	}
}

// TestRunTimeoutWatchdog pins the per-run watchdog: a run over its
// budget is cancelled through the context plumbing, the stream ends
// with a terminal error event, the slot frees promptly — and the
// timeout is not miscounted as a client disconnect.
func TestRunTimeoutWatchdog(t *testing.T) {
	s := New(Config{Slots: 1, RunTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	start := time.Now()
	_, err := c.Analyze(context.Background(), slowRequest("hog"), nil)
	if err == nil {
		t.Fatal("watchdogged run reported success")
	}
	if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("err = %T %v, want *RemoteError", err, err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}

	// The slot must be free for the next run.
	done, err := c.Analyze(context.Background(), Request{Workload: "rw"}, nil)
	if err != nil || done.Verdicts == 0 {
		t.Fatalf("run after watchdog: %v (done %+v)", err, done)
	}
	if v := metricValue(t, ts.URL, "portend_disconnects_total"); v != "0" {
		t.Errorf("portend_disconnects_total = %q, want 0 (watchdog is not a disconnect)", v)
	}
}

// TestReadyzSplit pins the liveness/readiness split: /healthz stays 200
// for the life of the process while /readyz (and admission) turn away
// work once draining starts.
func TestReadyzSplit(t *testing.T) {
	s := New(Config{DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}
	s.Drain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz after drain = %d, want 200 (liveness is not readiness)", got)
	}

	resp := postAnalyze(t, ts.URL, Request{Workload: "rw"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining = %d, want 503", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !eb.Draining {
		t.Fatalf("draining body = %+v (%v), want Draining=true", eb, err)
	}
}
