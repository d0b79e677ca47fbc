package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
	"repro/portend"
)

// normalizeVerdict renders verdict JSON with the stats zeroed: stats
// counters legitimately vary with cache history and pool width (the
// determinism contract covers verdict content, not instrumentation), so
// byte-identity is asserted on everything else.
func normalizeVerdict(t *testing.T, raw []byte) string {
	t.Helper()
	var v portend.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal verdict: %v\n%s", err, raw)
	}
	v.Stats = portend.Stats{}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-marshal verdict: %v", err)
	}
	return string(b)
}

// localVerdicts runs the analysis in-process exactly as the daemon
// would and returns the normalized verdict lines plus summaries.
func localVerdicts(t *testing.T, target portend.Target, parallel int) (lines, summaries []string) {
	t.Helper()
	a := portend.New(portend.WithParallel(parallel))
	for v, err := range a.Analyze(context.Background(), target) {
		if err != nil {
			t.Fatalf("local analyze: %v", err)
		}
		raw, merr := json.Marshal(v)
		if merr != nil {
			t.Fatalf("marshal local verdict: %v", merr)
		}
		lines = append(lines, normalizeVerdict(t, raw))
		summaries = append(summaries, v.String())
	}
	return lines, summaries
}

// remoteVerdicts streams the same submission through the HTTP surface.
func remoteVerdicts(t *testing.T, c *Client, req Request) (lines, summaries []string, done *DoneInfo) {
	t.Helper()
	done, err := c.Analyze(context.Background(), req, func(ev Event) error {
		if ev.Type == EventVerdict {
			lines = append(lines, normalizeVerdict(t, ev.Verdict))
			summaries = append(summaries, ev.Summary)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remote analyze: %v", err)
	}
	return lines, summaries, done
}

func assertSame(t *testing.T, name string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d lines, got %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: line %d differs\n--- local ---\n%s\n--- remote ---\n%s", name, i, want[i], got[i])
		}
	}
}

// TestRemoteVerdictsMatchLocal pins the service's core promise: the
// daemon serves, for every built-in workload and every curated corpus
// program, verdicts byte-identical (stats aside) to an in-process
// portend.Analyze — at pool widths 1 and 8, and with summaries intact.
func TestRemoteVerdictsMatchLocal(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(ts.Close) // not defer: parallel subtests outlive this frame
	c := &Client{Base: ts.URL}

	type sub struct {
		name   string
		target portend.Target
		req    Request
	}
	var subs []sub
	for _, w := range workloads.All() {
		subs = append(subs, sub{name: "workload/" + w.Name,
			target: portend.Workload(w.Name),
			req:    Request{Workload: w.Name}})
	}
	for _, cp := range corpus.Curated() {
		tg := portend.Source(cp.Name, cp.Source)
		req := Request{Source: cp.Source, Name: cp.Name}
		if cp.Args != nil {
			tg = tg.WithArgs(cp.Args...)
			req.Args = cp.Args
		}
		if cp.Inputs != nil {
			tg = tg.WithInputs(cp.Inputs...)
			req.Inputs = cp.Inputs
		}
		subs = append(subs, sub{name: "corpus/" + cp.Name, target: tg, req: req})
	}

	for _, sb := range subs {
		sb := sb
		t.Run(sb.name, func(t *testing.T) {
			t.Parallel()
			wantLines, wantSums := localVerdicts(t, sb.target, 1)
			for _, width := range []int{1, 8} {
				req := sb.req
				req.Options = &RequestOptions{Parallel: width}
				gotLines, gotSums, done := remoteVerdicts(t, c, req)
				tag := fmt.Sprintf("width=%d", width)
				assertSame(t, tag+" verdicts", wantLines, gotLines)
				assertSame(t, tag+" summaries", wantSums, gotSums)
				if done.Verdicts != len(gotLines) {
					t.Errorf("%s: done.Verdicts=%d, streamed %d", tag, done.Verdicts, len(gotLines))
				}
			}
		})
	}
}

// slowRequest is a raced program padded with a concrete tail of a
// billion loop iterations, under a run budget that does not cut the tail
// short: however fast the engine gets, its analysis holds a slot until
// it is cancelled, never finishing within a test's horizon.
func slowRequest(name string) Request {
	const src = `var g = 0
var acc = 0
fn w() { g = 1 }
fn main() {
	let t = spawn w()
	yield()
	g = 2
	join(t)
	for i = 0, 1000000000 { acc = acc + 1 }
	print("acc=", acc)
}`
	return Request{Source: src, Name: name, Options: &RequestOptions{Parallel: 1, RunBudget: 1 << 40}}
}

// startSlow submits a slow request on its own context and returns once
// the run holds the slot, handing back the cancel and a channel that
// closes when the request goroutine exits.
func startSlow(t *testing.T, s *Server, c *Client, tenant string) (cancel context.CancelFunc, exited chan struct{}) {
	t.Helper()
	ctx, cancelFn := context.WithCancel(context.Background())
	ch := make(chan struct{})
	cl := *c
	cl.Tenant = tenant
	go func() {
		defer close(ch)
		_, _ = cl.Analyze(ctx, slowRequest("slow"), nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.dispatch.active.Load() == 0 {
		if time.Now().After(deadline) {
			cancelFn()
			t.Fatal("slow request never acquired a slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cancelFn, ch
}

// TestDisconnectFreesSlot pins cancellation hygiene: a client that goes
// away mid-analysis must not leak its slot — the engine polls the
// request context, the handler returns, and the next tenant runs.
func TestDisconnectFreesSlot(t *testing.T) {
	s := New(Config{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	cancel, exited := startSlow(t, s, c, "a")
	cancel() // mid-run disconnect
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not return")
	}

	// The freed slot must admit and finish a quick run promptly.
	ctx, cancelQuick := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelQuick()
	done, err := c.Analyze(ctx, Request{Workload: "rw"}, nil)
	if err != nil {
		t.Fatalf("quick run after disconnect: %v", err)
	}
	if done.Verdicts == 0 {
		t.Fatal("quick run produced no verdicts")
	}

	// The disconnect is visible on /metrics as its own counter, distinct
	// from voluntary cancellation accounting.
	if got := s.metrics.disconnects.Load(); got != 1 {
		t.Errorf("portend_disconnects_total = %d, want 1", got)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "portend_disconnects_total 1") {
		t.Error("metrics exposition missing portend_disconnects_total 1")
	}
}

// TestRoundRobinFairness drives the dispatcher directly: with one slot
// and tenant A holding it plus A-queued work, a newly arrived tenant B
// is served before A's backlog.
func TestRoundRobinFairness(t *testing.T) {
	d := newDispatcher(1, 100, 100)

	holderRelease, _, err := d.admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	// queued submits a job and waits until it is visibly enqueued (total
	// queued depth reaches wantDepth), so arrival order is deterministic.
	queued := func(label, tenant string, wantDepth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, _, err := d.admit(context.Background(), tenant)
			if err != nil {
				t.Errorf("admit %s: %v", label, err)
				return
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			release()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			total := 0
			for _, n := range d.depths() {
				total += n
			}
			if total >= wantDepth {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached depth %d for %s", wantDepth, label)
			}
			time.Sleep(time.Millisecond)
		}
	}

	queued("a2", "a", 1)
	queued("b1", "b", 2)
	queued("a3", "a", 3)

	holderRelease()
	wg.Wait()

	got := strings.Join(order, ",")
	// After tenant A's holder releases, the round-robin pointer sits past
	// A, so B's first job runs before A's backlog.
	if got != "b1,a2,a3" {
		t.Fatalf("grant order = %s, want b1,a2,a3", got)
	}
}

// TestShedReturns429 pins hard load-shedding: with the slot held and
// the tenant queue full, the next request gets a typed 429 instead of
// queueing without bound, and the shed shows up on /metrics.
func TestShedReturns429(t *testing.T) {
	s := New(Config{Slots: 1, QueueSoft: 1, QueueHard: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, Tenant: "flooder"}

	cancel, exited := startSlow(t, s, c, "flooder")
	defer func() { cancel(); <-exited }()

	// Fill the queue (depth 1 = hard bound).
	qctx, qcancel := context.WithCancel(context.Background())
	queuedExited := make(chan struct{})
	go func() {
		defer close(queuedExited)
		_, _ = c.Analyze(qctx, Request{Workload: "rw"}, nil)
	}()
	defer func() { qcancel(); <-queuedExited }()
	deadline := time.Now().Add(10 * time.Second)
	for s.dispatch.depths()["flooder"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := c.Analyze(context.Background(), Request{Workload: "rw"}, nil)
	oe, ok := err.(*OverloadedError)
	if !ok {
		t.Fatalf("want *OverloadedError, got %v", err)
	}
	if oe.Tenant != "flooder" || oe.QueueDepth != 1 {
		t.Fatalf("unexpected overload detail: %+v", oe)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "portend_shed_total 1") {
		t.Fatalf("metrics missing shed count:\n%s", body)
	}
	if !strings.Contains(string(body), `portend_queue_depth{tenant="flooder"} 1`) {
		t.Fatalf("metrics missing queue depth:\n%s", body)
	}
}

// TestDegradedUnderSoftPressure pins soft shedding: a request admitted
// past the soft queue depth runs with a coarser budget, announces it
// with a degraded event, and flags the done summary.
func TestDegradedUnderSoftPressure(t *testing.T) {
	s := New(Config{Slots: 1, QueueSoft: 1, QueueHard: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, Tenant: "t"}

	cancel, exited := startSlow(t, s, c, "t")

	// First queued request: depth 0 at admission, full budget.
	firstExited := make(chan struct{})
	go func() {
		defer close(firstExited)
		_, _ = c.Analyze(context.Background(), Request{Workload: "rw"}, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.dispatch.depths()["t"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second queued request: depth 1 >= soft, degraded.
	var sawDegraded *DegradedInfo
	resCh := make(chan *DoneInfo, 1)
	errCh := make(chan error, 1)
	go func() {
		done, err := c.Analyze(context.Background(), Request{Workload: "rw"}, func(ev Event) error {
			if ev.Type == EventDegraded {
				sawDegraded = ev.Degraded
			}
			return nil
		})
		resCh <- done
		errCh <- err
	}()
	for s.dispatch.depths()["t"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel() // release the slot; the queue drains
	<-exited
	<-firstExited
	done, err := <-resCh, <-errCh
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if sawDegraded == nil {
		t.Fatal("no degraded event on the soft-shed run")
	}
	if sawDegraded.Mp != 2 || sawDegraded.Ma != 1 {
		t.Fatalf("degraded budget = %+v, want mp=2 ma=1", sawDegraded)
	}
	if !done.Degraded {
		t.Fatal("done summary not flagged degraded")
	}
	if done.Verdicts == 0 {
		t.Fatal("degraded run produced no verdicts")
	}
}

// TestWarmSecondRequest pins the persistent tiers: a repeat submission
// reports a warm start and observes cross-run checkpoint reuse.
func TestWarmSecondRequest(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	req := Request{Workload: "sqlite", Options: &RequestOptions{Parallel: 1}}

	_, _, first := remoteVerdicts(t, c, req)
	if first.WarmStart {
		t.Fatal("first request claims a warm start")
	}
	lines1, _, second := remoteVerdicts(t, c, req)
	if !second.WarmStart {
		t.Fatal("second identical request not warm")
	}
	if second.Tier.Runs != 2 {
		t.Fatalf("tier runs = %d, want 2", second.Tier.Runs)
	}
	delta := second.Tier.CheckpointHits - first.Tier.CheckpointHits
	if delta <= 0 {
		t.Fatalf("no cross-run checkpoint reuse: first %+v second %+v", first.Tier, second.Tier)
	}

	// Warmth must not change verdicts: the second stream is identical.
	lines0, _ := localVerdicts(t, portend.Workload("sqlite"), 1)
	assertSame(t, "warm verdicts", lines0, lines1)
}
