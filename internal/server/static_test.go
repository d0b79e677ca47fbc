package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// faultySource trips the static lint pass with certain-fault findings:
// bad() unlocks a mutex no path has locked and then double-locks
// another. Every execution of main faults, so admission rejects it.
const faultySource = `var g = 0
mutex m
mutex held
fn bad() {
	unlock(m)
	lock(held)
	lock(held)
}
fn main() {
	bad()
	print("done")
}`

// cleanSource is fully lock-protected: the static pass proves every
// shared-access pair ordered or mutually excluded, so the server can
// answer race-free without a dynamic run.
const cleanSource = `var counter = 0
mutex m
fn worker() {
	lock(m)
	counter = counter + 1
	unlock(m)
}
fn main() {
	let a = spawn worker()
	let b = spawn worker()
	lock(m)
	counter = counter + 10
	let snap = counter
	unlock(m)
	join(a)
	join(b)
	print("c=", snap)
}`

func postAnalyze(t *testing.T, base string, req Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	return resp
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(b)
}

// TestStaticAdmission pins the service's static front door on one
// server instance so the /metrics counters can be asserted exactly:
// a certain-fault program is rejected with 422 and its lint findings;
// and a statically race-free program is answered with a staticClean
// done event without occupying an analysis slot.
func TestStaticAdmission(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	t.Run("lint-rejection-422", func(t *testing.T) {
		resp := postAnalyze(t, ts.URL, Request{Source: faultySource, Name: "faulty"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if len(eb.Lint) == 0 {
			t.Fatalf("422 body carries no lint findings: %+v", eb)
		}
		rules := map[string]bool{}
		for _, l := range eb.Lint {
			if l.Severity != "error" {
				t.Errorf("non-error severity %q on 422 finding %+v", l.Severity, l)
			}
			rules[l.Rule] = true
		}
		if !rules["unlock-unheld"] || !rules["double-lock"] {
			t.Errorf("expected unlock-unheld and double-lock findings, got %+v", eb.Lint)
		}
	})

	t.Run("static-clean-fastpath", func(t *testing.T) {
		var events int
		done, err := c.Analyze(context.Background(), Request{Source: cleanSource, Name: "clean"},
			func(Event) error { events++; return nil })
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		if events != 0 {
			t.Errorf("fast path streamed %d events before done, want 0", events)
		}
		if !done.StaticClean {
			t.Errorf("done.StaticClean = false, want true: %+v", done)
		}
		if done.Verdicts != 0 || done.Races != 0 {
			t.Errorf("fast path reported verdicts: %+v", done)
		}
		if s.dispatch.active.Load() != 0 {
			t.Errorf("fast path left an active slot")
		}
	})

	t.Run("metrics", func(t *testing.T) {
		body := scrapeMetrics(t, ts.URL)
		for _, want := range []string{
			"portend_lint_rejections_total 1",
			"portend_static_clean_fastpath_total 1",
			"portend_pruned_schedules_total",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %q:\n%s", want, body)
			}
		}
	})
}

// TestStaticAnswersTouchNoTier pins that static admission answers before
// the tier registry is consulted: two 422 rejections of one submission
// and a staticClean answer leave no cache tier behind.
func TestStaticAnswersTouchNoTier(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postAnalyze(t, ts.URL, Request{Source: faultySource, Name: "faulty"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("round %d: status %d, want 422", i, resp.StatusCode)
		}
	}
	done, err := (&Client{Base: ts.URL}).Analyze(context.Background(),
		Request{Source: cleanSource, Name: "clean"}, nil)
	if err != nil {
		t.Fatalf("analyze clean: %v", err)
	}
	if !done.StaticClean {
		t.Fatalf("clean submission not answered staticClean: %+v", done)
	}
	if got := s.metrics.lintRejections.Load(); got != 2 {
		t.Errorf("lintRejections = %d, want 2", got)
	}
	if n, _, _, _ := s.tiers.snapshot(); n != 0 {
		t.Errorf("tiers = %d after static answers only, want 0", n)
	}
}

// TestLegacyNoStaticPruneIgnored pins the compatibility promise to
// clients that still send the removed options.noStaticPrune field: the
// decoder skips it and static admission runs as on any other request.
func TestLegacyNoStaticPruneIgnored(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	src, err := json.Marshal(faultySource)
	if err != nil {
		t.Fatalf("marshal source: %v", err)
	}
	body := `{"source":` + string(src) + `,"name":"faulty","options":{"noStaticPrune":true}}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 from static admission", resp.StatusCode)
	}
}
