package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safemeasure/internal/telemetry"
)

// ErrBudgetExceeded is wrapped into RunContext's returned error when the
// campaign aborted because its failure budget was spent. The partial records
// are still returned plan-ordered, so the caller can flush them and print a
// -resume hint; test with errors.Is.
var ErrBudgetExceeded = errors.New("campaign: failure budget exceeded")

// DefaultBudgetMinRuns is how many runs must complete before the failure
// budget is enforced when FailureBudget.MinRuns is 0 — early enough to stop
// a campaign that is failing wholesale, late enough that one unlucky first
// run cannot abort everything.
const DefaultBudgetMinRuns = 8

// FailureBudget aborts a campaign whose error fraction exceeds what the
// operator budgeted for. The paper's scaling argument cuts both ways: a
// campaign grinding through a dead vantage or a tarpitting censor is pure
// exposure with no measurement value, so past the budget the right move is
// to stop, flush, and leave a resumable file.
type FailureBudget struct {
	// Fraction is the error fraction of completed runs allowed before the
	// campaign aborts.
	Fraction float64
	// MinRuns is how many runs must complete before the budget is
	// enforced; 0 means DefaultBudgetMinRuns.
	MinRuns int
}

// Exceeded reports whether errs errors among completed runs spend the
// budget. It is the one rule both the batch abort and the measured
// service's degraded mode apply.
func (b FailureBudget) Exceeded(completed, errs int) bool {
	minRuns := b.MinRuns
	if minRuns <= 0 {
		minRuns = DefaultBudgetMinRuns
	}
	return completed >= minRuns && float64(errs)/float64(completed) > b.Fraction
}

// budgetState tracks completed/errored runs and trips at most once.
type budgetState struct {
	mu        sync.Mutex
	budget    FailureBudget
	completed int
	errors    int
	tripped   bool
}

// observe folds one executed run in and reports whether this observation
// tripped the budget (true exactly once).
func (b *budgetState) observe(failed bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.completed++
	if failed {
		b.errors++
	}
	if b.tripped || !b.budget.Exceeded(b.completed, b.errors) {
		return false
	}
	b.tripped = true
	return true
}

// snapshot returns the counts at (or after) the trip for the error message.
func (b *budgetState) snapshot() (completed, errs int, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completed, b.errors, b.tripped
}

// DefaultStallFactor sets the stall watchdog threshold to this multiple of
// the per-run timeout.
const DefaultStallFactor = 3

// Run shards the plan across a bounded worker pool and returns every record
// in plan order; it is RunContext without cancellation.
func Run(plan *Plan, opts Options) ([]RunRecord, error) {
	return RunContext(context.Background(), plan, opts)
}

// RunContext feeds the plan into a Pool and returns every record in plan
// order. When ctx is canceled, dispatch stops, in-flight runs drain within
// Options.Grace (then are abandoned with error records, behind the same
// claim gate as the timeout path), and the records of every run that was
// dispatched — still in plan order — are returned together with ctx.Err().
// A tripped failure budget takes the same drain path but returns
// ErrBudgetExceeded instead. Undispatched specs simply produce no record,
// which is exactly the shape -resume needs to finish the campaign later. A
// panic in OnRecord/OnTrace is recovered, counted, and retained as the
// returned error; the campaign keeps draining either way.
func RunContext(ctx context.Context, plan *Plan, opts Options) ([]RunRecord, error) {
	if plan == nil || len(plan.Specs) == 0 {
		return nil, fmt.Errorf("campaign: empty plan")
	}
	p := NewPool(opts)
	opts = p.opts

	// The failure budget aborts through a context derived from the caller's:
	// dispatch and the drain-grace machinery see one cancellation signal
	// whether the user interrupted or the budget tripped; the two cases are
	// told apart after the pool drains.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var budget *budgetState
	budgetTrips := opts.Metrics.Counter("campaign_budget_aborts_total")
	if opts.Budget != nil {
		budget = &budgetState{budget: *opts.Budget}
	}
	queued := opts.Metrics.Gauge("campaign_queue_depth")
	queued.Set(int64(len(plan.Specs)))
	var lastDone atomic.Int64
	lastDone.Store(time.Now().UnixNano())
	// The watchdog must be fully stopped before RunContext returns so a
	// caller-owned StallDump writer is never written to after return.
	defer watchStalls(opts, &lastDone)()

	records := make([]RunRecord, len(plan.Specs))
	done := func(spec RunSpec, rec RunRecord) {
		if budget != nil && budget.observe(rec.Error != "") {
			budgetTrips.Inc()
			abort()
		}
		lastDone.Store(time.Now().UnixNano())
		records[spec.Index] = rec
		if opts.OnRecord != nil {
			p.guard("OnRecord", func() { opts.OnRecord(rec) })
		}
	}
	// Dispatch until the plan is exhausted or the run context cancels
	// (caller interrupt or budget abort); a spec a worker took always
	// produces a record (dispatched is written only here, and read only
	// after Shutdown has waited for every worker).
	dispatched := make([]bool, len(plan.Specs))
	ndispatched := 0
	for _, spec := range plan.Specs {
		if p.submit(runCtx, poolJob{ctx: runCtx, spec: spec, done: done}) != nil {
			break
		}
		queued.Add(-1)
		dispatched[spec.Index] = true
		ndispatched++
	}
	// A background context never expires, so Shutdown returns nil once
	// every dispatched run has settled under runCtx's drain grace.
	_ = p.Shutdown(context.Background())

	err := p.callbackErr()
	partialOf := func() []RunRecord {
		queued.Set(0) // undispatched specs are no longer pending
		partial := make([]RunRecord, 0, ndispatched)
		for i, rec := range records {
			if dispatched[i] {
				partial = append(partial, rec)
			}
		}
		return partial
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		if m := opts.Metrics; m != nil {
			m.Counter("campaign_cancel_total").Inc()
			m.Counter("campaign_canceled_specs_total").Add(int64(len(plan.Specs) - ndispatched))
		}
		return partialOf(), errors.Join(ctxErr, err)
	}
	if budget != nil {
		if completed, errs, tripped := budget.snapshot(); tripped {
			return partialOf(), errors.Join(fmt.Errorf(
				"%w: %d of %d completed runs errored (budget %.3f); undispatched runs left for -resume",
				ErrBudgetExceeded, errs, completed, opts.Budget.Fraction), err)
		}
	}
	return records, err
}

// watchStalls starts the stall watchdog and returns the function that stops
// it and waits for it to exit. The watchdog fires when no record has
// completed for the stall threshold while the campaign is still mid-flight —
// the signature of every worker wedged at once (or a deadlock this layer
// introduced), which per-run timeouts alone cannot distinguish from slow
// progress. opts carries the pool's resolved timeout; a negative timeout
// disables the watchdog.
func watchStalls(opts Options, lastDone *atomic.Int64) (stop func()) {
	if opts.Timeout <= 0 {
		return func() {}
	}
	stallAfter := DefaultStallFactor * opts.Timeout
	stalls := opts.Metrics.Counter("campaign_watchdog_stalls_total")
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		period := stallAfter / 8
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		fired := false
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			idle := time.Since(time.Unix(0, lastDone.Load()))
			if idle < stallAfter {
				fired = false // progress resumed: re-arm for the next episode
				continue
			}
			if fired {
				continue // one report per stall episode
			}
			fired = true
			stalls.Inc()
			if opts.StallDump != nil {
				fmt.Fprintf(opts.StallDump,
					"campaign: watchdog: no run completed for %v (threshold %v); goroutine dump:\n",
					idle.Round(time.Millisecond), stallAfter)
				_, _ = telemetry.GoroutineDump(opts.StallDump)
			}
		}
	}()
	return func() { close(quit); <-exited }
}
