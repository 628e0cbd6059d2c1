// Command safemeasured serves measurements as a long-running service: a
// persistent campaign worker pool shared by every client, fronted by a
// bounded admission queue with per-client token-bucket rate limits and
// round-robin fairness, and a result cache keyed by the deterministic
// (technique, scenario, impairment, trial, seed) cell identity — a cache
// hit returns bytes identical to a fresh run.
//
// Usage:
//
//	safemeasured -addr 127.0.0.1:8080 -workers 8
//	safemeasured -addr 127.0.0.1:0 -addr-file /tmp/addr   # ephemeral port
//	safemeasured -rate 100 -burst 200 -queue 4096 -cache-max 100000
//	safemeasured -fail-budget 0.5                         # failure budget
//	safemeasured -journal /var/lib/sm/wal -archive /var/lib/sm/obs.jsonl
//
// Endpoints:
//
//	POST/GET /measure — submit a request, stream NDJSON records + aggregate
//	GET /metrics      — Prometheus text (measured_* and campaign_* series)
//	GET /healthz      — liveness (200 while the process serves)
//	GET /readyz       — readiness (503 while draining or degraded)
//
// Durability: -journal write-aheads every admitted run before it may
// execute and -archive appends every executed run's observation rows; on
// restart the archive warm-starts the result cache (previously answered
// cells are byte-identical cache hits again) and the journal replays
// whatever a crash left admitted but unfinished — kill -9 mid-campaign
// resumes where it left off without executing any completed run twice. A
// failing disk degrades instead of crashing: /readyz goes 503, new
// admissions are rejected with reason "storage" (retryable), and the
// service heals when writes succeed again.
//
// Shutdown: the first SIGINT/SIGTERM starts a graceful drain — /readyz
// goes 503 first and keeps answering for -lb-grace so load balancers
// observe not-ready before the listener closes, then new requests are
// rejected, admitted runs and open streams complete within -drain-grace,
// the pool stops, and the process exits 0. A drain that cannot finish in
// time abandons the stragglers through the campaign claim gate and exits
// 1; a second signal exits 1 immediately.
//
// Exit codes: 0 clean drain, 1 unclean shutdown or serve error, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/measured"
	"safemeasure/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "persistent pool size")
	timeout := flag.Duration("timeout", 60*time.Second, "wall-clock budget per run")
	retries := flag.Int("retries", core.DefaultMaxAttempts, "max probe attempts per run")
	queueMax := flag.Int("queue", measured.DefaultQueueMax, "max admitted-but-unscheduled runs across all clients")
	rate := flag.Float64("rate", measured.DefaultRatePerSec, "per-client request rate limit (requests/s; negative disables)")
	burst := flag.Int("burst", measured.DefaultBurst, "per-client rate-limit burst")
	cacheMax := flag.Int("cache-max", measured.DefaultCacheMax, "result cache capacity (records); negative disables caching")
	maxRuns := flag.Int("max-runs", measured.DefaultMaxRunsPerRequest, "max runs one request may expand into")
	failBudget := flag.Float64("fail-budget", -1, "degrade the service when more than this fraction of completed runs are errors (negative disables)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long a shutdown lets admitted runs and open streams finish")
	lbGrace := flag.Duration("lb-grace", 0, "after /readyz flips 503 on shutdown, keep serving this long so load balancers observe not-ready before the listener closes")
	archivePath := flag.String("archive", "", "append every executed run as flat observation rows to this file (.bin/.smoa for binary); warm-starts the result cache on restart; cache hits are not re-archived")
	journalPath := flag.String("journal", "", "write-ahead request journal: admitted runs are journaled (fsynced) before execution and replayed after a crash")
	journalFsync := flag.Bool("journal-fsync", true, "fsync the journal after every admission (power-loss durability; process-crash safety holds either way)")
	writeTimeout := flag.Duration("write-timeout", measured.DefaultWriteTimeout, "per-write deadline on response streams; a stalled reader is dropped once a write blocks past it (negative disables)")
	streamBuf := flag.Int("stream-buf", measured.DefaultStreamBuf, "per-stream record buffer between run completion and the client write loop")
	profContention := flag.Bool("pprof-contention", false, "record mutex and block profiles (served on /debug/pprof; costs a little on every contended lock)")
	flag.Parse()

	if *workers < 1 {
		*workers = 1
	}
	if *profContention {
		telemetry.EnableContentionProfiling(5, 100_000)
	}
	if *retries < 1 {
		fmt.Fprintf(os.Stderr, "safemeasured: -retries must be >= 1 (got %d)\n", *retries)
		os.Exit(2)
	}
	retry := core.DefaultRetryPolicy()
	retry.MaxAttempts = *retries

	reg := telemetry.NewRegistry()
	cfg := measured.Config{
		Workers:           *workers,
		Timeout:           *timeout,
		Retry:             retry,
		QueueMax:          *queueMax,
		RatePerSec:        *rate,
		Burst:             *burst,
		CacheMax:          *cacheMax,
		MaxRunsPerRequest: *maxRuns,
		WriteTimeout:      *writeTimeout,
		StreamBuf:         *streamBuf,
		Metrics:           reg,
	}
	if *failBudget >= 0 {
		cfg.Budget = &campaign.FailureBudget{Fraction: *failBudget}
	}
	var store *measured.Store
	if *archivePath != "" || *journalPath != "" {
		// The store owns both files end to end: it repairs torn tails from
		// the last crash, compacts the journal to its pending admits, and
		// truncates any archive tail group the journal never acknowledged.
		st, err := measured.OpenStore(measured.StoreConfig{
			Journal:     *journalPath,
			Archive:     *archivePath,
			FsyncAdmits: *journalFsync,
			Metrics:     reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "safemeasured:", err)
			os.Exit(1)
		}
		store = st
		cfg.Store = st
	}
	svc := measured.New(cfg)
	if store != nil {
		warmed, err := svc.WarmStart()
		if err != nil {
			fmt.Fprintln(os.Stderr, "safemeasured: warm start:", err)
			os.Exit(1)
		}
		replayed := svc.Replay()
		if warmed > 0 || replayed > 0 {
			fmt.Fprintf(os.Stderr, "safemeasured: recovered %d archived results into the cache, replaying %d unfinished runs\n",
				warmed, replayed)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/measure", svc.Handler())
	mux.Handle("/", telemetry.Handler(reg, nil, svc.Ready))

	// Catch signals before the listener can answer /readyz: a SIGTERM sent
	// as soon as the service reports ready must drain, not kill it.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "safemeasured:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "safemeasured:", err)
			os.Exit(1)
		}
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "safemeasured: serving /measure, /metrics, /healthz, /readyz on %s (%d workers)\n",
		ln.Addr(), *workers)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "safemeasured:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "safemeasured: %v: draining (up to %v); signal again to exit immediately\n",
			sig, *drainGrace)
	}
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "safemeasured: second signal: exiting now")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	var storeClose func() error
	if store != nil {
		storeClose = store.Close
	}
	clean := drain(ctx, drainHooks{
		beginDrain:   svc.BeginDrain,
		lbGrace:      *lbGrace,
		sleep:        time.Sleep,
		httpShutdown: srv.Shutdown,
		httpClose:    func() { srv.Close() },
		svcShutdown:  svc.Shutdown,
		storeClose:   storeClose,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "safemeasured: "+format+"\n", args...)
		},
	})
	if !clean {
		fmt.Fprintln(os.Stderr, "safemeasured: unclean shutdown: in-flight work was abandoned")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "safemeasured: drained cleanly")
}

// drainHooks is the graceful-shutdown sequence with its effects injected, so
// the ordering contract is testable without a process: readiness flips first
// (so /readyz answers 503 and load balancers stop routing while the listener
// is still serving), then — after lbGrace — the listener shuts down and waits
// for open streams, then queued and in-flight runs drain, then the store
// flushes and closes.
type drainHooks struct {
	beginDrain   func()                      // flip /readyz to 503; keep serving
	lbGrace      time.Duration               // how long to serve not-ready first
	sleep        func(time.Duration)         // time.Sleep, injectable
	httpShutdown func(context.Context) error // stop the listener, wait for streams
	httpClose    func()                      // hard-stop fallback after a failed shutdown
	svcShutdown  func(context.Context) error // drain queued and in-flight runs
	storeClose   func() error                // flush and close the store; nil when none
	logf         func(format string, args ...any)
}

// drain runs the shutdown sequence in its load-balancer-safe order and
// reports whether everything finished cleanly. BeginDrain strictly precedes
// the HTTP shutdown: a listener that closes before readiness flips sends
// traffic to a refused port instead of a 503 the balancer understands.
func drain(ctx context.Context, h drainHooks) bool {
	clean := true
	h.beginDrain()
	if h.lbGrace > 0 {
		h.sleep(h.lbGrace)
	}
	if err := h.httpShutdown(ctx); err != nil {
		h.logf("http shutdown: %v", err)
		h.httpClose()
		clean = false
	}
	if err := h.svcShutdown(ctx); err != nil {
		h.logf("%v", err)
		clean = false
	}
	if h.storeClose != nil {
		if err := h.storeClose(); err != nil {
			h.logf("store: %v", err)
			clean = false
		}
	}
	return clean
}
