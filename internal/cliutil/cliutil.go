// Package cliutil holds the small helpers shared by the portend, pilrun,
// and paper-eval commands: flag-value parsing, error exit, indentation,
// and the -parallel flag portend and paper-eval share. It exists so the
// commands stop carrying copy-pasted private versions of the same code.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated list of 64-bit integers ("1,2,3");
// the empty string parses to a nil slice, which consumers treat as
// "unset" (workload defaults apply).
func ParseInts(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Fatal prints "tool: err" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Indent prefixes every line of s with pad (trailing newline trimmed).
func Indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}

// ParallelFlag registers the -parallel flag portend and paper-eval
// share, defaulting to GOMAXPROCS.
func ParallelFlag(usage string) *int {
	if usage == "" {
		usage = "classification worker-pool width (1 = sequential; verdicts are identical for every width)"
	}
	return flag.Int("parallel", runtime.GOMAXPROCS(0), usage)
}
