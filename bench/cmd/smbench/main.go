// Command smbench runs the repository's layered benchmark.
//
// One run of one workload (the form `bash bench/run.sh` forwards):
//
//	smbench -root . -safemeasured bin/safemeasured \
//	    --workload e11-batch --seed 1 --seconds 10 --trace 0
//
// prints progress on standard error and, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A run whose correctness checks fail prints correct:false and exits 1.
//
// Subcommands:
//
//	smbench run [-runs 3] [-seed 1] [-out set.json]
//	    run every workload in BENCHMARK.json -runs times in fresh processes
//	    (plus one traced run each), run the in-package layer benchmarks, and
//	    write the medians as a result set
//	smbench agree <setA.json> <setB.json>
//	    compare two result sets against the bounds in BENCHMARK.json; exit 1
//	    naming each gated metric and workload that disagrees
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"safemeasure/bench"
)

func main() {
	fs := flag.NewFlagSet("smbench", flag.ExitOnError)
	root := fs.String("root", ".", "checkout root (holds BENCHMARK.json)")
	safemeasured := fs.String("safemeasured", ".bench_build/bin/safemeasured", "safemeasured binary for the service-open workload")
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	_ = fs.Parse(os.Args[1:])

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch fs.Arg(0) {
	case "first-result":
		err = bench.FirstResult(fs.Args()[1:])
	case "run":
		err = bench.Runner(ctx, *root, *safemeasured, fs.Args()[1:])
	case "agree":
		if fs.NArg() != 3 {
			err = fmt.Errorf("usage: smbench agree <setA.json> <setB.json>")
			break
		}
		err = bench.Agree(*root, fs.Arg(1), fs.Arg(2), os.Stdout)
	case "":
		err = runOne(ctx, bench.Params{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, Root: *root, Safemeasured: *safemeasured})
	default:
		err = fmt.Errorf("unknown subcommand %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smbench:", err)
		os.Exit(1)
	}
}

func runOne(ctx context.Context, p bench.Params) error {
	res, err := bench.Run(ctx, p)
	if err != nil {
		return err
	}
	for _, msg := range res.Problems() {
		fmt.Fprintln(os.Stderr, "smbench: check failed:", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}
