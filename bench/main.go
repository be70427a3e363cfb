// Command bench is the repository's one daemon-level benchmark. It
// builds ./cmd/treesimd, starts real daemon processes on loopback,
// drives them over HTTP from two serial connections, checks what they
// deliver against a pattern.Matches oracle and prints every metric by
// name with its unit. bench/README.md has the workloads, the metric
// tables and how to run, trace and compare; BENCHMARK.json at the root
// is the contract the driver checks it against.
//
//	bash bench/run.sh -all -seed 1 -out bench/out/run.json
//	bash bench/run.sh -all -trace 1 -out bench/out/trace.json
//	bash bench/run.sh -compare bench/baseline/set1.json bench/baseline/set2.json
//	bash bench/run.sh --workload fed-line3 --seed 7 --seconds 16 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json and the module the daemon builds from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "treesimd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside cmd/treesimd) at or above the working directory")
		}
		dir = parent
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: fanout-mem|acked-durable|churn-mix|fed-line3")
		all      = fs.Bool("all", false, "run all four workloads")
		seed     = fs.Int64("seed", 1, "input generation seed; run k of -repeat uses seed+k")
		seconds  = fs.Int("seconds", 30, "timed window in seconds, the same for every workload")
		trace    = fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass yielding the per-layer metrics")
		repeat   = fs.Int("repeat", 1, "runs per workload; a set for -compare wants several")
		out      = fs.String("out", "", "write the report (stamp plus every run) to this file")
		smoke    = fs.Bool("smoke", false, "tiny run of all four workloads: 1 s windows, 50 subscriptions")
		compare  = fs.Bool("compare", false, "compare two reports: -compare base.json candidate.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two report files")
			return 2
		}
		b, err := readBenchmarkJSON(root)
		if err != nil {
			return fail(err)
		}
		base, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		cand, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		regressed, unresolved, err := compareReports(stdout, b, base, cand)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%d regressed, %d unresolved\n", regressed, unresolved)
		if regressed+unresolved > 0 {
			return 1
		}
		return 0
	}

	names := workloadNames
	switch {
	case *smoke:
		*seconds = 1
	case *all:
	case *workload != "":
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
	default:
		fmt.Fprintln(stderr, "bench: want -workload <name>, -all, -smoke or -compare")
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive, -trace 0 or 1")
		return 2
	}

	// Every exit path stops the daemons and removes the temp dirs; a
	// signal cancels the run and falls through to the same cleanup.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer owned.cleanup()

	bin, err := buildDaemon(root)
	if err != nil {
		return fail(err)
	}
	rep := &report{Stamp: makeStamp(root)}
	rep.Stamp.Seed, rep.Stamp.Seconds, rep.Stamp.Trace, rep.Stamp.Smoke, rep.Stamp.Repeat = *seed, *seconds, *trace == 1, *smoke, *repeat
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	code := 0
	var last *result
	for k := 0; k < *repeat; k++ {
		for _, name := range names {
			cfg := runConfig{root: root, bin: bin, workload: name, seed: *seed + int64(k),
				window: time.Duration(*seconds) * time.Second, trace: *trace == 1, sc: sc, out: stdout}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			res.print(stdout)
			rep.Runs = append(rep.Runs, res)
			last = res
			if res.ViolationCount > 0 {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fail(err)
		}
	}
	if *workload != "" && !*smoke && !*all {
		// The driver reads the last line of a single-workload run.
		line, err := last.contractLine(*trace == 1)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
	}
	return code
}
