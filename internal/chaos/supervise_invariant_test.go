package chaos

import (
	"errors"
	"fmt"
	"path/filepath"
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
// check: with the failure budget armed, seeded panic and hang faults at
// workers 1 and 8 must (a) never deadlock the pool, (b) abort the campaign
// with ErrBudgetExceeded, and (c) leave a partial file that -resume
// completes — once the fault clears — to the byte-identical sorted record
// set and aggregate of an unfaulted, unsupervised run. Run under -race:
// abort, drain, and the claim gate all race.
func TestSupervisedBudgetAbortResumeInvariant(t *testing.T) {
	plan := supervisedPlan(t)

	baseRecs, err := campaign.Run(plan, campaign.Options{Workers: 1})
	if err != nil {
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
				path := filepath.Join(t.TempDir(), "out.jsonl")
				sink := newArchive(t, path, nil)
				recs, err := campaign.Run(plan, campaign.Options{
					Workers:  workers,
					Timeout:  mode.timeout,
					Grace:    -1, // drain fully: every dispatched run must settle
					Budget:   &campaign.FailureBudget{Fraction: 0.25, MinRuns: 4},
					OnRecord: sink.Record,
					Execute:  mode.exec(),
				})
				if !errors.Is(err, campaign.ErrBudgetExceeded) {
					t.Fatalf("err = %v, want ErrBudgetExceeded", err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				// Every partial record keeps its coordinates, and every one
				// is a run that executed: nothing sheds work but the budget.
				for _, rec := range recs {
					if rec.Technique == "" || rec.Scenario == "" {
						t.Fatalf("partial record lost coordinates: %+v", rec)
					}
				}
				// Sequential dispatch: the budget trips at the 4th executed
				// run (2 faults in 4); at most one more spec can win the
				// dispatch race before the abort lands.
				if executed := len(recs); workers == 1 && executed > 6 {
					t.Fatalf("abort dispatched %d executed runs, want <= 6", executed)
				}
				// The fault clears (resume uses the default executor); the
				// wreck must converge to the unfaulted baseline.
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}
	}
}

// TestBudgetAbortResumeCountsEachRunOnce is the in-process form of the
// budget smoke in scripts/verify.sh: a 1ns per-run timeout fails every run,
// so the failure budget aborts the campaign with error records in the
// archive; a resume with the default timeout re-runs them and the rest of
// the plan. Reading the archive back must then yield exactly one record per
// planned run and no errors — every error record was superseded by its
// run's error-free one.
func TestBudgetAbortResumeCountsEachRunOnce(t *testing.T) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"dns-poison"}, Trials: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "budget.jsonl")
	sink := newArchive(t, path, nil)
	_, err = campaign.Run(plan, campaign.Options{
		Workers:  2,
		Timeout:  time.Nanosecond,
		Budget:   &campaign.FailureBudget{Fraction: 0.5},
		OnRecord: sink.Record,
	})
	if !errors.Is(err, campaign.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, rec := range readArchive(t, path) {
		if rec.Error != "" {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("the 1ns timeout archived no error records")
	}

	resumeOnly(t, plan, 2, path)
	recs := readArchive(t, path)
	errs = 0
	for _, rec := range recs {
		if rec.Error != "" {
			errs++
		}
	}
	if len(recs) != len(plan.Specs) || errs != 0 {
		t.Fatalf("read back %d records with %d errors, want %d records and 0 errors",
			len(recs), errs, len(plan.Specs))
	}
}
