package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/portend"
)

// daemon is an in-process portendd on a loopback listener, built with
// server.New: the default slots (GOMAXPROCS), and requests at width 1 —
// the portendd -parallel 1 deployment, where the slots run as many
// single-width analyses as the machine has cores, so the two
// closed-loop clients load the 2 cores without oversubscribing them.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	tr     *http.Transport
	hc     *http.Client // over tr, which keeps one connection per client
	base   string
	served chan error
}

// startDaemon boots a daemon over dataDir and waits until /readyz
// answers 200.
func startDaemon(dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    server.New(server.Config{DataDir: dataDir, DefaultParallel: 1}),
		tr:     &http.Transport{MaxIdleConnsPerHost: clients},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	d.hc = &http.Client{Transport: d.tr}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := d.awaitReady(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

func (d *daemon) awaitReady() error {
	hc := &http.Client{Transport: d.tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("portendd at %s not ready: %v", d.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down without a drain — a restart. Every tier
// was flushed before its done event went out, so a daemon started over
// the same directory restores them all.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.tr.CloseIdleConnections()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func (d *daemon) client() *server.Client {
	return &server.Client{Base: d.base, HTTP: d.hc}
}

// counter reads one unlabeled series from /metrics.
func (d *daemon) counter(name string) (int64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	return 0, fmt.Errorf("metrics: no series %s", name)
}

// reply is what one request streamed back.
type reply struct {
	latency time.Duration // submission to the done event
	first   time.Duration // submission to the first verdict; < 0 if none

	verdicts []portend.Verdict
	raceErrs int
	degraded bool
	done     *server.DoneInfo
	err      error
}

func submit(c *server.Client, p *program) reply {
	req := server.Request{Source: p.source, Name: p.name, Args: p.args, Inputs: p.inputs}
	r := reply{first: -1}
	t0 := time.Now()
	r.done, r.err = c.Analyze(context.Background(), req, func(ev server.Event) error {
		switch ev.Type {
		case server.EventVerdict:
			if r.first < 0 {
				r.first = time.Since(t0)
			}
			v, err := ev.DecodeVerdict()
			if err != nil {
				return err
			}
			r.verdicts = append(r.verdicts, v)
		case server.EventRaceError:
			r.raceErrs++
		case server.EventDegraded:
			r.degraded = true
		}
		return nil
	})
	r.latency = time.Since(t0)
	return r
}

// misses scores a reply like program.misses; a failed, shed or degraded
// request misses too.
func (r *reply) misses(p *program) (miss, attempted int) {
	if r.err != nil || r.done == nil {
		return max(1, len(p.want)), len(p.want)
	}
	got := make([]verdictID, len(r.verdicts))
	for i, v := range r.verdicts {
		got[i] = idOf(v)
	}
	miss, attempted = p.misses(got, r.raceErrs)
	if r.degraded {
		miss++
	}
	return miss, attempted
}

// stream is the reply's verdict stream with the stats removed: the part
// that must be identical whether the tier was cold, warm or restored.
func (r *reply) stream() []string {
	out := make([]string, len(r.verdicts))
	for i, v := range r.verdicts {
		v.Stats = portend.Stats{}
		b, err := json.Marshal(v)
		if err != nil {
			b = []byte(err.Error())
		}
		out[i] = string(b)
	}
	return out
}

// streamDiffs counts the positions where two verdict streams differ.
func streamDiffs(a, b []string) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// runPass submits every program once from n closed-loop clients that
// share one cursor, and returns the replies in program order.
func runPass(c *server.Client, progs []program, n int) []reply {
	out := make([]reply, len(progs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(progs) {
					return
				}
				out[i] = submit(c, &progs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
