package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

// DefaultGrace is how long an in-flight run may keep going after its run
// context is canceled before the pool abandons it, when Options.Grace is 0.
const DefaultGrace = 10 * time.Second

// Executor produces the record for one spec. The claim callback reports
// whether the run still owns its slot: it returns true exactly once, and
// false forever after the pool has abandoned the run (wall-clock timeout or
// drain-grace expiry), in which case the executor must not publish any side
// effects (traces, shared metrics).
type Executor func(spec RunSpec, horizon time.Duration, claim func() bool) RunRecord

// ErrPoolClosed is returned by Pool.Do when the pool has begun shutting
// down before the spec could be dispatched. A spec that WAS dispatched
// always yields a record, even through a shutdown (possibly an error record
// if the drain grace expired).
var ErrPoolClosed = errors.New("campaign: pool closed")

// errPoolDraining marks records of specs that were queued when shutdown
// abandoned the drain — an explicit record, so a spec that was dispatched
// never vanishes silently and callers can tell "never ran" from "ran and
// failed".
var errPoolDraining = errors.New("skipped: pool draining")

// Options parameterizes a Pool, and Run/RunContext, which feed a plan
// through one. Budget, StallDump and OnRecord are per-campaign and only
// RunContext reads them; a Pool returns each record to its submitter
// instead.
type Options struct {
	// Workers bounds concurrency; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the wall-clock budget per run; a run exceeding it yields
	// an error record instead of stalling the campaign. 0 means 60s;
	// negative disables the timeout.
	Timeout time.Duration
	// Grace bounds how long an in-flight run may keep executing after its
	// run context is canceled — a RunContext interrupt or failure-budget
	// abort, or an expired Pool.Shutdown deadline — before the pool
	// abandons it with an error record. 0 means DefaultGrace; negative
	// drains fully, however long runs take.
	Grace time.Duration
	// Horizon is the population cover-traffic horizon per run; 0 means
	// DefaultHorizon.
	Horizon time.Duration
	// Retry is the per-probe retry policy threaded into every run; the zero
	// value means core.DefaultRetryPolicy(). core.SingleShot() reproduces
	// the pre-resilience scoring.
	Retry core.RetryPolicy
	// Budget, when set, aborts the campaign once the error fraction of
	// completed runs exceeds Budget.Fraction: dispatch stops, in-flight
	// runs drain within Grace, and RunContext returns the plan-ordered
	// partial records with ErrBudgetExceeded. nil never aborts.
	Budget *FailureBudget
	// StallDump receives the stall watchdog's goroutine dump; nil keeps
	// just the campaign_watchdog_stalls_total counter. The watchdog fires
	// when no run completes for DefaultStallFactor× the run timeout while
	// the campaign is mid-flight; a negative timeout disables it.
	StallDump io.Writer
	// OnRecord, when set, receives every record as its run completes —
	// typically an ObservationSink's Record. It may be called from multiple
	// workers at once; sinks in this package are safe for that. A panic in
	// the callback is recovered and retained as the campaign's error — it
	// never kills the worker (which would strand the spec feed).
	OnRecord func(RunRecord)
	// Metrics, when set, receives pool-level metrics (queue depth, run
	// latency, per-family success counters) and the per-run hot-path
	// counters. Each run stages its hot-path metrics in a private registry
	// and merges them in atomically on completion, so an abandoned
	// (timed-out) run never touches shared state; because every merge is an
	// integer sum, final values are independent of Workers. Only the
	// wall-clock histogram varies run to run.
	Metrics *telemetry.Registry
	// OnTrace, when set, enables per-run packet-path tracing and receives
	// each run's event stream as it completes. Like OnRecord it may be
	// called from multiple workers at once and is panic-guarded.
	OnTrace func(RunTrace)
	// TraceCap bounds each run's trace ring; 0 means DefaultTraceCap.
	TraceCap int
	// Execute overrides the per-spec executor — chaos wrappers and tests
	// exercise the pool's recovery paths with it; nil means the
	// instrumented default (see Executor for the claim contract).
	Execute Executor
}

// familyOf groups techniques into the paper's families for the labeled
// campaign counters.
func familyOf(technique string) string {
	switch technique {
	case "overt-dns", "overt-http", "overt-tcp":
		return "overt"
	case "syn-scan", "spam", "ddos":
		return "mimicry"
	default:
		return "spoofed"
	}
}

// defaultExecutor builds the instrumented executor a Pool uses when
// Options.Execute is nil: per-run staged metrics, optional tracing, and the
// claim gate before any shared-state publication.
func (opts Options) defaultExecutor(guard func(kind string, f func())) Executor {
	return func(spec RunSpec, horizon time.Duration, claim func() bool) RunRecord {
		// Hot-path metrics stage in a registry private to this run and
		// merge into the shared one only if the run still owns its slot:
		// a goroutine the pool abandoned at the timeout must not keep
		// bumping campaign-wide counters from the past.
		var staged *telemetry.Registry
		if opts.Metrics != nil {
			staged = telemetry.NewRegistry()
		}
		rec, events := ExecuteInstrumented(spec, ExecConfig{
			Horizon:  horizon,
			Metrics:  staged,
			Trace:    opts.OnTrace != nil,
			TraceCap: opts.TraceCap,
			Retry:    opts.Retry,
		})
		if !claim() {
			return rec // abandoned: the pool already sent an error record
		}
		opts.Metrics.Merge(staged)
		if opts.OnTrace != nil {
			guard("OnTrace", func() {
				opts.OnTrace(RunTrace{
					Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
					Behavior:  recordBehavior(spec.Behavior),
					Technique: spec.Technique, Trial: spec.Trial, Seed: spec.Seed,
					Events: events,
				})
			})
		}
		return rec
	}
}

// Pool is the one campaign dispatcher: a bounded set of workers executing
// RunSpecs with per-run wall-clock timeout, panic recovery, the
// abandoned-run claim gate, and staged telemetry merged only on claim. Both
// modes run on it. RunContext feeds a whole plan into a private Pool and
// drains it; the measured service keeps one Pool for its lifetime, and many
// submitters share its workers through Do until Shutdown.
type Pool struct {
	opts     Options // defaults resolved by NewPool
	execute  Executor
	jobs     chan poolJob
	ctx      context.Context // canceled when a Shutdown deadline expires
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	cbErr    error // first recovered callback panic
	submitWG sync.WaitGroup

	inflight *telemetry.Gauge
	cbPanics *telemetry.Counter
	wallHist *telemetry.Histogram
	virtHist *telemetry.Histogram
}

// poolJob is one submitted spec, the context whose cancellation starts its
// drain grace once it runs, and the callback the worker hands its record to.
type poolJob struct {
	ctx  context.Context
	spec RunSpec
	done func(RunSpec, RunRecord)
}

// NewPool resolves the Options defaults, starts the workers and returns the
// running pool.
func NewPool(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Timeout == 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Grace == 0 {
		opts.Grace = DefaultGrace
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Pool-level metrics. Every handle is nil-safe, so a nil registry costs
	// one comparison per use. The wall-clock histogram is the only
	// nondeterministic metric; the virtual-time one depends only on seeds.
	p := &Pool{
		opts:     opts,
		jobs:     make(chan poolJob),
		ctx:      ctx,
		cancel:   cancel,
		inflight: opts.Metrics.Gauge("campaign_runs_inflight"),
		cbPanics: opts.Metrics.Counter("campaign_callback_panics_total"),
	}
	if opts.Metrics != nil {
		p.wallHist = opts.Metrics.HistogramBuckets("campaign_run_wall_seconds", 1e-3, 2, 24)
		p.virtHist = opts.Metrics.HistogramBuckets("campaign_run_virtual_ms", 1, 2, 24)
	}
	p.execute = opts.Execute
	if p.execute == nil {
		p.execute = opts.defaultExecutor(p.guard)
	}
	for w := 0; w < opts.Workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.opts.Workers }

// worker executes jobs until the jobs channel closes at Shutdown.
func (p *Pool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		var rec RunRecord
		if p.ctx.Err() != nil {
			// Shutdown abandoned the drain: fast-fail whatever is still
			// queued instead of burning the grace per job.
			rec = ErrorRecord(job.spec, errPoolDraining)
		} else {
			p.inflight.Add(1)
			start := time.Now()
			rec = runGuarded(job.ctx, job.spec, p.execute, p.opts.Horizon, p.opts.Timeout, p.opts.Grace)
			p.wallHist.Observe(time.Since(start).Seconds())
			p.inflight.Add(-1)
		}
		accountRun(p.opts.Metrics, job.spec, rec, p.virtHist)
		job.done(job.spec, rec)
	}
}

// submit hands one job to a worker, blocking until one is free. It returns
// ctx's error or ErrPoolClosed, without dispatching, when either ends first.
func (p *Pool) submit(ctx context.Context, job poolJob) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	// Registered before the send so Shutdown cannot close the jobs channel
	// out from under a blocked sender.
	p.submitWG.Add(1)
	p.mu.Unlock()
	defer p.submitWG.Done()
	// The explicit checks first: a select with an idle worker AND a done
	// context picks randomly, which would dispatch a spec whose submitter
	// already gave up.
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.ctx.Err() != nil {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.ctx.Done():
		return ErrPoolClosed
	}
}

// Do executes one spec on the pool and returns its record. It blocks until
// a worker is free, the run completes, ctx is canceled, or the pool shuts
// down; ctx cancellation only aborts the wait for a worker — once the spec
// is dispatched the run completes regardless (its record is still returned),
// so shared consumers like a result cache never lose work a client paid for.
func (p *Pool) Do(ctx context.Context, spec RunSpec) (RunRecord, error) {
	done := make(chan RunRecord, 1) // the worker's send never blocks
	err := p.submit(ctx, poolJob{ctx: p.ctx, spec: spec,
		done: func(_ RunSpec, rec RunRecord) { done <- rec }})
	if err != nil {
		return RunRecord{}, err
	}
	return <-done, nil
}

// Shutdown stops admitting new specs and drains: queued and in-flight runs
// complete normally while ctx lasts. When ctx expires first, in-flight runs
// are abandoned through the claim gate after the pool grace (their
// submitters get explicit error records, never silence) and ctx's error is
// returned — so a nil return is the "clean drain, nothing abandoned"
// signal the service smoke test asserts on.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		// In-flight submits either complete their send (a worker takes the
		// job) or bail via ctx/pool cancellation; either way submitWG drains
		// and the channel close below cannot race a send. If ctx expires
		// while senders are still parked behind busy workers, cancel the
		// pool so they bail with ErrPoolClosed instead of pinning Shutdown.
		waited := make(chan struct{})
		go func() { p.submitWG.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-ctx.Done():
			p.cancel()
			<-waited
		}
		close(p.jobs)
	}
	done := make(chan struct{})
	go func() { p.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.cancel() // abandon in-flight runs after the pool grace
		<-done
		return fmt.Errorf("campaign: pool shutdown: %w", ctx.Err())
	}
}

// guard runs a caller-supplied callback. A panic is recovered, counted, and
// the first one retained for callbackErr: a failing sink must degrade to a
// reported error, never to a dead worker silently stranding the spec feed.
func (p *Pool) guard(kind string, f func()) {
	defer func() {
		if r := recover(); r != nil {
			p.cbPanics.Inc()
			p.mu.Lock()
			if p.cbErr == nil {
				p.cbErr = fmt.Errorf("campaign: %s callback panicked: %v", kind, r)
			}
			p.mu.Unlock()
		}
	}()
	f()
}

// callbackErr returns the first callback panic guard recovered, if any.
func (p *Pool) callbackErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cbErr
}

// runGuarded executes one spec with panic recovery, a wall-clock timeout,
// and cancellation-with-grace. The run proceeds in a fresh goroutine so a
// wedged simulator cannot occupy a worker forever; on timeout — or on ctx
// cancel once the drain grace expires — the goroutine is abandoned. The run
// and the abandon path share one claim token, so exactly one side owns the
// outcome: if the pool claims, its error record is returned and the run's
// staged telemetry is discarded by the gate it failed; if the run claimed
// first, its record is awaited and returned.
func runGuarded(ctx context.Context, spec RunSpec, execute Executor,
	horizon, timeout, grace time.Duration) RunRecord {
	var claimed atomic.Bool
	claim := func() bool { return claimed.CompareAndSwap(false, true) }
	done := make(chan RunRecord, 1) // buffered: an abandoned run sends and exits, never leaks
	go func() {
		defer func() {
			if p := recover(); p != nil {
				// The buffered send cannot block: a panic means the normal
				// send never happened.
				done <- ErrorRecord(spec, fmt.Errorf("panic: %v", p))
			}
		}()
		done <- execute(spec, horizon, claim)
	}()

	var timeoutC <-chan time.Time
	if timeout >= 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	ctxDone := ctx.Done()
	var graceC <-chan time.Time
	for {
		select {
		case rec := <-done:
			return rec
		case <-timeoutC:
			if claim() {
				return ErrorRecord(spec, fmt.Errorf("run exceeded %v wall-clock timeout", timeout))
			}
			// The run claimed completion between the timer firing and our
			// claim attempt; its side effects are published, take its record.
			return <-done
		case <-ctxDone:
			// Canceled: give the run the drain grace, then abandon it. A
			// negative grace drains fully (no deadline beyond the timeout).
			ctxDone = nil
			if grace >= 0 {
				graceTimer := time.NewTimer(grace)
				defer graceTimer.Stop()
				graceC = graceTimer.C
			}
		case <-graceC:
			if claim() {
				return ErrorRecord(spec, fmt.Errorf(
					"campaign canceled: run abandoned after %v drain grace", grace))
			}
			return <-done
		}
	}
}

// accountRun publishes the shared per-run campaign counters for one
// completed record, so service-mode metrics stay comparable with batch-mode
// ones.
func accountRun(m *telemetry.Registry, spec RunSpec, rec RunRecord, virtHist *telemetry.Histogram) {
	if m == nil {
		return
	}
	fam := familyOf(spec.Technique)
	m.Counter(telemetry.Labels("campaign_runs_total", "family", fam)).Inc()
	if rec.Error != "" {
		m.Counter("campaign_errors_total").Inc()
		return
	}
	virtHist.Observe(rec.ElapsedMS)
	if rec.Correct {
		m.Counter(telemetry.Labels("campaign_correct_total", "family", fam)).Inc()
	}
	if rec.Verdict == "inconclusive" {
		m.Counter(telemetry.Labels("campaign_inconclusive_total", "family", fam)).Inc()
	}
}
