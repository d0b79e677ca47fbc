package sa_test

import (
	"bytes"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lang"
	"repro/internal/sa"
	"repro/internal/workloads"
	"repro/internal/workloads/corpus"
)

// FuzzAnalyze drives the service's static admission path — parse,
// compile, analyze, encode — over arbitrary PIL. The server runs it in
// the request handler, outside the run's panic boundary, so a panic
// here would drop the connection and the client's retry loop would
// resubmit the same program. Every program that compiles must analyze
// without panicking, and two analyses of one program must encode to
// identical bytes (the artifact the server caches per tier and keys
// admission off). Seeded with every built-in workload and every curated
// corpus program.
func FuzzAnalyze(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	for _, cp := range corpus.Curated() {
		f.Add(cp.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := lang.Parse(src)
		if err != nil {
			return
		}
		p, err := bytecode.Compile(ast, "fuzz", bytecode.Options{})
		if err != nil {
			return
		}
		a, b := sa.Analyze(p).Encode(), sa.Analyze(p).Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("two analyses encode differently\n--- first ---\n%s\n--- second ---\n%s", a, b)
		}
	})
}
