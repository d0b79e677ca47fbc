package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The smoke tests run the built benchmark at its shortest length.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// binary is the benchmark, built once for all the tests.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "perfbench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the benchmark and returns its exit code, standard output
// and the decoded result line.
func run(t *testing.T, args ...string) (int, string, jsonResult) {
	t.Helper()
	args = append([]string{"--seconds", "1", "--scratch", t.TempDir()}, args...)
	cmd := exec.Command(binary, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

func TestEveryMetricWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(benchWorkloads))
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, stdout, res := run(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, result %+v", w.Name, trace, code, res)
			}
			if !strings.Contains(stdout, "seed=3") {
				t.Errorf("%s trace=%s: seed not echoed", w.Name, trace)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want[trace]) {
				t.Errorf("%s trace=%s: metrics %v, BENCHMARK.json lists %v",
					w.Name, trace, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want[trace])))
			}
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	_, _, a := run(t, "--workload", "long-trace", "--trace", "1")
	_, _, b := run(t, "--workload", "long-trace", "--trace", "1")
	for _, d := range perLayer {
		if d.repeatsExactly() && a.Metrics[d.name] != b.Metrics[d.name] {
			t.Errorf("%s: %v then %v", d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
		}
	}
}

func TestPlantedWrongLabelFails(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		code, _, res := run(t, "--workload", "long-trace", "--trace", trace, "--plant-wrong-label")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("trace=%s: a planted wrong label gave exit %d and result %+v", trace, code, res)
		}
	}
}

// TestFailsOutsideRepository runs the benchmark's command in a directory
// holding only BENCHMARK.json and the benchmark: it must fail without
// printing a result.
func TestFailsOutsideRepository(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, "../BENCHMARK.json") {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(root, "perfbench", f)
		if f == "../BENCHMARK.json" {
			dst = filepath.Join(root, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "long-trace", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = root
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("the benchmark ran outside the repository")
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("a failed run printed a result:\n%s", out)
	}
}
