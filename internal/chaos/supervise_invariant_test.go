package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"safemeasure/internal/campaign"
)

// supervisedPlan is a larger matrix than invariantPlan — four trials per
// cell — so a failure budget has room to trip mid-campaign with runs still
// undispatched.
func supervisedPlan(t *testing.T) *campaign.Plan {
	t.Helper()
	p, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"dns-poison"}, Trials: 4, Seed: 5678,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSupervisedBudgetAbortResumeInvariant is the supervision acceptance
// check: with per-cell breakers AND a failure budget armed, seeded panic and
// hang faults at workers 1 and 8 must (a) never deadlock the pool, (b) abort
// the campaign with ErrBudgetExceeded, and (c) leave a partial file that
// -resume completes — once the fault clears — to the byte-identical sorted
// record set and aggregate of an unfaulted, unsupervised run. Run under
// -race: abort, drain, breaker bookkeeping, and the claim gate all race.
func TestSupervisedBudgetAbortResumeInvariant(t *testing.T) {
	plan := supervisedPlan(t)

	var base bytes.Buffer
	baseSink := campaign.NewJSONLSink(&base)
	baseRecs, err := campaign.Run(plan, campaign.Options{Workers: 1, OnRecord: baseSink.Write})
	if err != nil {
		t.Fatal(err)
	}
	if err := baseSink.Flush(); err != nil {
		t.Fatal(err)
	}
	wantJSONL, wantAgg := canonicalize(t, baseRecs)

	modes := []struct {
		name    string
		timeout time.Duration
		exec    func() campaign.Executor
	}{
		// Every 2nd executor call detonates or wedges, so the executed-run
		// error fraction hovers at 0.5 — far past the 0.25 budget.
		{"panic", 0, func() campaign.Executor { return PanicEvery(2, nil) }},
		{"hang", 30 * time.Millisecond,
			func() campaign.Executor { return HangEvery(2, 300*time.Millisecond, nil) }},
	}
	for _, workers := range []int{1, 8} {
		for _, mode := range modes {
			workers, mode := workers, mode
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				sink := campaign.NewJSONLSink(&buf)
				recs, err := campaign.Run(plan, campaign.Options{
					Workers:  workers,
					Timeout:  mode.timeout,
					Grace:    -1, // drain fully: every dispatched run must settle
					Breakers: campaign.NewBreakerSet(campaign.BreakerConfig{Consecutive: 2, Cooldown: 2}),
					Budget:   &campaign.FailureBudget{Fraction: 0.25, MinRuns: 4},
					OnRecord: sink.Write,
					Execute:  mode.exec(),
				})
				if !errors.Is(err, campaign.ErrBudgetExceeded) {
					t.Fatalf("err = %v, want ErrBudgetExceeded", err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				// Every partial record keeps its coordinates, and skips are
				// exactly the breaker's explicit shed markers.
				executed := 0
				for _, rec := range recs {
					if rec.Technique == "" || rec.Scenario == "" {
						t.Fatalf("partial record lost coordinates: %+v", rec)
					}
					if !campaign.IsBreakerSkip(rec) {
						executed++
					}
				}
				if workers == 1 {
					// Sequential dispatch: the budget trips at the 4th
					// executed run (2 faults in 4); at most one more spec can
					// win the dispatch race before the abort lands.
					if executed > 6 {
						t.Fatalf("abort dispatched %d executed runs, want <= 6", executed)
					}
				}
				// The fault clears (resume uses the default executor); the
				// wreck must converge to the unfaulted baseline.
				resumeAndCheck(t, plan, workers, &buf, wantJSONL, wantAgg)
			})
		}
	}
}
