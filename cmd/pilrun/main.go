// Command pilrun runs a PIL program concretely — the reproduction's
// equivalent of plain Cloud9 interpretation (no race detection, no
// classification). It is the baseline for Table 4's "Cloud9 running
// time" column.
//
// Usage:
//
//	pilrun [-args 1,2,3] [-inputs 4,5] [-budget N] [-disasm] prog.pil
//	pilrun -workload pbzip2
//	pilrun -workload ocean -timeout 5s
//
// The static pre-analysis is portend -lint.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/portend"
)

func main() {
	argsFlag := flag.String("args", "", "comma-separated program arguments")
	inputsFlag := flag.String("inputs", "", "comma-separated input log values")
	budget := flag.Int64("budget", 50_000_000, "instruction budget")
	disasm := flag.Bool("disasm", false, "print disassembly and exit")
	workload := flag.String("workload", "", "run a built-in workload instead of a file")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	flag.Parse()

	args, err := cliutil.ParseInts(*argsFlag)
	if err != nil {
		fatal(err)
	}
	inputs, err := cliutil.ParseInts(*inputsFlag)
	if err != nil {
		fatal(err)
	}

	var target portend.Target
	switch {
	case *workload != "":
		target = portend.Workload(*workload)
	case flag.NArg() == 1:
		target = portend.File(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: pilrun [flags] prog.pil (or -workload name)")
		os.Exit(2)
	}
	if args != nil {
		target = target.WithArgs(args...)
	}
	if inputs != nil {
		target = target.WithInputs(inputs...)
	}

	if *disasm {
		text, err := portend.Disassemble(target)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := portend.Exec(ctx, target, *budget)
	if res == nil {
		fatal(err)
	}
	fmt.Print(res.Output)
	fmt.Fprintf(os.Stderr, "-- %s after %d instructions in %v\n", res.Stop, res.Steps, res.Duration)
	if res.Err != "" {
		fmt.Fprintf(os.Stderr, "-- runtime error: %s\n", res.Err)
		os.Exit(1)
	}
	if err != nil || res.Failed() {
		os.Exit(1)
	}
}

func fatal(err error) {
	cliutil.Fatal("pilrun", err)
}
