package sa

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang"
)

func compile(t *testing.T, name, src string) *bytecode.Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	p, err := bytecode.Compile(ast, name, bytecode.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p
}

const lockedSrc = `
var counter = 0
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

func TestLockProtectedIsRaceFree(t *testing.T) {
	f := Analyze(compile(t, "locked", lockedSrc))
	if !f.RaceFree || len(f.Candidates) != 0 {
		t.Fatalf("expected race-free, got candidates: %+v", f.Candidates)
	}
	if len(f.RaceFreeObjects) != 1 || f.RaceFreeObjects[0] != "counter" {
		t.Fatalf("race-free objects = %v", f.RaceFreeObjects)
	}
	// counter is still touched by concurrent threads: it escapes.
	if len(f.EscapingObjects) != 1 || f.EscapingObjects[0] != "counter" {
		t.Fatalf("escaping objects = %v", f.EscapingObjects)
	}
	if len(f.Lints) != 0 {
		t.Fatalf("unexpected lints: %+v", f.Lints)
	}
}

const racySrc = `
var g = 0
fn worker() {
	g = 5
}
fn main() {
	let w = spawn worker()
	g = 7
	join(w)
	print("g=", g)
}`

func TestUnprotectedPairIsCandidate(t *testing.T) {
	f := Analyze(compile(t, "racy", racySrc))
	if f.RaceFree {
		t.Fatal("expected candidates")
	}
	found := false
	for _, c := range f.Candidates {
		if c.Object == "g" && c.Write == "both" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no write/write candidate on g: %+v", f.Candidates)
	}
	if len(f.EscapingObjects) == 0 || f.EscapingObjects[0] != "g" {
		t.Fatalf("escaping objects = %v", f.EscapingObjects)
	}
}

// Accesses before the first SPAWN are provably single-threaded; the
// worker's self-pair needs two instances. Neither may produce a pair.
const preSpawnSrc = `
var g = 0
fn worker() {
	g = 5
}
fn main() {
	g = 1
	let w = spawn worker()
	join(w)
	print("done")
}`

func TestPreSpawnAccessIsNotParallel(t *testing.T) {
	f := Analyze(compile(t, "prespawn", preSpawnSrc))
	if !f.RaceFree {
		t.Fatalf("expected race-free (write precedes spawn), got %+v", f.Candidates)
	}
}

// Spawning the same worker twice makes its internal write a self-pair.
const twoWorkerSrc = `
var g = 0
fn worker() {
	g = 5
}
fn main() {
	let a = spawn worker()
	let b = spawn worker()
	join(a)
	join(b)
	print("done")
}`

func TestTwoInstancesSelfPair(t *testing.T) {
	f := Analyze(compile(t, "twoworker", twoWorkerSrc))
	if f.RaceFree {
		t.Fatal("expected a self-pair candidate on g")
	}
	c := f.Candidates[0]
	if c.Object != "g" || c.First.Fn != "worker" || c.Second.Fn != "worker" {
		t.Fatalf("candidate = %+v", c)
	}
}

const lintSrc = `
var g = 0
mutex m
mutex held
fn bad() {
	unlock(m)
	lock(held)
	lock(held)
}
fn orphan() {
	lock(m)
	unlock(m)
}
fn leak() {
	lock(m)
}
fn main() {
	bad()
	leak()
	print("done")
}`

func TestLints(t *testing.T) {
	f := Analyze(compile(t, "lints", lintSrc))
	rules := map[string]string{}
	for _, l := range f.Lints {
		rules[l.Rule+"@"+l.Fn] = l.Severity
	}
	for key, want := range map[string]string{
		RuleUnlockUnheld + "@bad":       SeverityError,
		RuleDoubleLock + "@bad":         SeverityError,
		RuleLockLeak + "@leak":          SeverityWarning,
		RuleUnreachableSync + "@orphan": SeverityWarning,
	} {
		if got := rules[key]; got != want {
			t.Errorf("lint %s: severity %q, want %q (all: %+v)", key, got, want, f.Lints)
		}
	}
	if len(f.ErrorLints()) < 2 {
		t.Fatalf("expected >=2 error lints, got %+v", f.ErrorLints())
	}
}

// The pruning queries: a frame suspended past everything interesting
// must report no reach; one before the racy write must.
func TestFrameReachQueries(t *testing.T) {
	p := compile(t, "racy", racySrc)
	f := Analyze(p)
	worker := p.FuncID("worker")
	gid := p.GlobalID("g")
	if worker < 0 || gid < 0 {
		t.Fatal("missing worker/g")
	}
	if !f.FrameMayTouchGlobal(worker, 0, gid) {
		t.Fatal("worker entry must reach g")
	}
	end := len(p.Funcs[worker].Code)
	if f.FrameMayTouchGlobal(worker, end, gid) {
		t.Fatal("a frame past its last instruction reaches nothing")
	}
	// No INPUT/ARG anywhere: no fork point can be symbolic.
	for fn := range p.Funcs {
		if f.FrameMayFork(fn, 0) {
			t.Fatalf("fn %d: fork reach without any symbolic source", fn)
		}
	}
}

const symSrc = `
var g = 0
fn main() {
	let x = input()
	if x > 3 { g = 1 }
	print("g=", g)
}`

func TestSymbolicForkReach(t *testing.T) {
	p := compile(t, "sym", symSrc)
	f := Analyze(p)
	if !f.FrameMayFork(p.MainFunc, 0) {
		t.Fatal("input-dependent branch must be fork-reachable from entry")
	}
}

// Byte-determinism at the package level: repeated and concurrent
// analyses of one program yield identical artifacts. (The cross-workload
// and corpus sweep lives in the repo-root static determinism suite.)
func TestEncodeByteDeterminism(t *testing.T) {
	for _, src := range []string{lockedSrc, racySrc, lintSrc, symSrc} {
		p := compile(t, "det", src)
		want := Analyze(p).Encode()
		var wg sync.WaitGroup
		got := make([][]byte, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = Analyze(p).Encode()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if !bytes.Equal(want, got[i]) {
				t.Fatalf("run %d differs:\n%s\nvs\n%s", i, want, got[i])
			}
		}
	}
}

func TestRenderMentionsCandidates(t *testing.T) {
	f := Analyze(compile(t, "racy", racySrc))
	out := f.Render()
	for _, want := range []string{"racy", "candidate", `"g"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
