// Command labbench regenerates every table and figure from the paper's
// evaluation (DESIGN.md §4: experiments E1-E12) and prints them as text,
// one experiment at a time in id order.
//
// Usage:
//
//	labbench               # run everything
//	labbench -only E3,E5   # run a subset
//	labbench -seed 7       # change the deterministic seed
//	labbench -quick        # smaller workloads (CI-friendly)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"safemeasure/internal/experiments"
	"safemeasure/internal/spoof"
)

// renderer is any experiment result.
type renderer interface{ Render() string }

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed for all experiments")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E3); empty runs all")
	quick := flag.Bool("quick", false, "smaller workloads")
	flag.Parse()

	scanPorts, spamN, syriaUsers, feasN := 1000, 100, 21000, 100000
	mvrHorizon := 30 * time.Second
	if *quick {
		scanPorts, spamN, syriaUsers, feasN = 100, 50, 2000, 10000
		mvrHorizon = 10 * time.Second
	}

	type job struct {
		id  string
		run func() (renderer, error)
	}
	jobs := []job{
		{"E1", func() (renderer, error) { return experiments.E1ReferenceSystems(*seed) }},
		{"E2", func() (renderer, error) { return experiments.E2Scanning(*seed, scanPorts) }},
		{"E3", func() (renderer, error) { return experiments.E3SpamCDF(*seed, spamN) }},
		{"E4", func() (renderer, error) { return experiments.E4DDoS(*seed, 40) }},
		{"E5", func() (renderer, error) { return experiments.E5SyriaLogs(*seed, syriaUsers) }},
		{"E6", func() (renderer, error) { return experiments.E6StatelessSpoof(*seed, spoof.PolicySlash24) }},
		{"E7", func() (renderer, error) { return experiments.E7StatefulSpoof(*seed) }},
		{"E8", func() (renderer, error) { return experiments.E8SpoofFeasibility(*seed, feasN) }},
		{"E9", func() (renderer, error) { return experiments.E9MVR(*seed, mvrHorizon) }},
		{"E10", func() (renderer, error) { return experiments.E10EthicsLoad(*seed) }},
		{"E11", func() (renderer, error) { return experiments.E11Headline(*seed) }},
		{"E12", func() (renderer, error) { return experiments.E12Ablations(*seed) }},
	}

	// -only must name known experiments: a typo that silently drops an id
	// would look like a passing run.
	known := map[string]bool{}
	var ids []string
	for _, j := range jobs {
		known[j.id] = true
		ids = append(ids, j.id)
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(strings.ToUpper(*only), ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !known[id] {
			fmt.Fprintf(os.Stderr, "labbench: unknown experiment %q in -only (known: %s)\n", id, strings.Join(ids, ","))
			os.Exit(2)
		}
		selected[id] = true
	}

	// The first SIGINT/SIGTERM stops launching experiments — the one
	// already running finishes and its table still prints. Restoring the
	// default disposition right after means a second signal kills the
	// process the ordinary way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "labbench: interrupt: finishing the running experiment; signal again to exit now")
		signal.Stop(sigc)
		cancel()
	}()

	var skipped []string
	for _, j := range jobs {
		if len(selected) > 0 && !selected[j.id] {
			continue
		}
		if ctx.Err() != nil {
			skipped = append(skipped, j.id)
			continue
		}
		start := time.Now()
		res, err := j.run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", j.id, err)
			os.Exit(1)
		}
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v]\n\n", j.id, elapsed.Round(time.Millisecond))
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "labbench: interrupted; skipped %s (rerun with -only %s)\n",
			strings.Join(skipped, ","), strings.Join(skipped, ","))
		os.Exit(130)
	}
}
