package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/telemetry"
)

// failingStub returns an executor that fails every run (or only the listed
// techniques when any are given) with a fast stub record — no lab execution.
func failingStub(failTechniques ...string) Executor {
	failAll := len(failTechniques) == 0
	return func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
		fail := failAll
		for _, tech := range failTechniques {
			if spec.Technique == tech {
				fail = true
			}
		}
		rec := RunRecord{Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
			Trial: spec.Trial}
		rec.Technique = spec.Technique
		rec.Seed = spec.Seed
		if fail {
			rec.Error = "stub: vantage dead"
		} else {
			rec.Correct = true
		}
		claim()
		return rec
	}
}

func TestFailureBudgetAborts(t *testing.T) {
	p := smallPlan(t, 21) // 6 specs
	reg := telemetry.NewRegistry()
	recs, err := Run(p, Options{
		Workers: 1,
		Metrics: reg,
		Budget:  &FailureBudget{Fraction: 0.5, MinRuns: 3},
		Execute: failingStub(),
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if len(recs) >= len(p.Specs) {
		t.Fatalf("budget abort dispatched the whole plan (%d records)", len(recs))
	}
	if len(recs) < 3 {
		t.Fatalf("aborted before MinRuns: %d records", len(recs))
	}
	// Partial records stay plan-ordered (a worker=1 abort dispatches a
	// prefix) and every one carries its coordinates for -resume.
	for i, rec := range recs {
		spec := p.Specs[i]
		if rec.Technique != spec.Technique || rec.Trial != spec.Trial {
			t.Fatalf("partial record %d out of plan order: %+v", i, rec)
		}
		if rec.Error == "" {
			t.Fatalf("failing stub produced a clean record: %+v", rec)
		}
	}
	if got := reg.Counter("campaign_budget_aborts_total").Value(); got != 1 {
		t.Fatalf("budget_aborts_total = %d, want 1", got)
	}
	// The partial file resumes to completion once the executor heals; error
	// records re-run, so resume covers everything the abort cut short.
	rest := p.Remaining(DoneSet(recs))
	recs2, err := Run(rest, Options{Workers: 2, Execute: failingStub("no-such")})
	if err != nil {
		t.Fatal(err)
	}
	// Every partial record was an error, so resume re-runs the whole plan.
	if len(recs2) != len(p.Specs) {
		t.Fatalf("resume covered %d of %d specs", len(recs2), len(p.Specs))
	}
	for _, rec := range recs2 {
		if rec.Error != "" {
			t.Fatalf("resumed run still failing: %+v", rec)
		}
	}
}

func TestFailureBudgetToleratesErrorsWithinBudget(t *testing.T) {
	p := smallPlan(t, 22) // 6 specs; "spam" fails in 2 of them
	recs, err := Run(p, Options{
		Workers: 2,
		// MinRuns 4: the worst transient (both spam failures among the first
		// four completions) is exactly 0.5, within the budget's fraction.
		Budget:  &FailureBudget{Fraction: 0.5, MinRuns: 4},
		Execute: failingStub("spam"),
	})
	if err != nil {
		t.Fatalf("budget tripped within its fraction: %v", err)
	}
	if len(recs) != len(p.Specs) {
		t.Fatalf("records = %d, want the full plan", len(recs))
	}
}

// TestBreakerSkipsDoNotSpendBudget pins the interaction contract: runs an
// open breaker sheds are excluded from the failure-budget fraction on both
// sides, so a tripped breaker starves the budget of observations instead of
// spending it.
func TestBreakerSkipsDoNotSpendBudget(t *testing.T) {
	p := smallPlan(t, 23) // 3 cells x 2 trials
	recs, err := Run(p, Options{
		Workers:  1,
		Breakers: NewBreakerSet(BreakerConfig{Consecutive: 1, Cooldown: 100}),
		// Fraction 0 with MinRuns 4: a fourth *executed* failure would abort,
		// but each cell's breaker opens after its first failure, so only 3
		// runs ever execute and the budget never has enough evidence.
		Budget:  &FailureBudget{Fraction: 0, MinRuns: 4},
		Execute: failingStub(),
	})
	if err != nil {
		t.Fatalf("breaker skips spent the failure budget: %v", err)
	}
	var skips, executed int
	for _, rec := range recs {
		if IsBreakerSkip(rec) {
			skips++
		} else if rec.Error != "" {
			executed++
		}
	}
	if executed != 3 || skips != 3 {
		t.Fatalf("executed=%d skips=%d, want 3 and 3", executed, skips)
	}
}

// TestBreakerSkipRecordsResume pins that skip records are re-run on resume
// like any other error record, so shedding never loses coverage.
func TestBreakerSkipRecordsResume(t *testing.T) {
	p := smallPlan(t, 24)
	recs, err := Run(p, Options{
		Workers:  1,
		Breakers: NewBreakerSet(BreakerConfig{Consecutive: 1, Cooldown: 100}),
		Execute:  failingStub(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rest := p.Remaining(DoneSet(recs))
	if len(rest.Specs) != len(p.Specs) {
		t.Fatalf("resume re-runs %d of %d specs; error and skip records must all requeue",
			len(rest.Specs), len(p.Specs))
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	p := smallPlan(t, 33).Filter(func(s RunSpec) bool { return s.Index == 0 })
	reg := telemetry.NewRegistry()
	var dump bytes.Buffer
	recs, err := Run(p, Options{
		Workers:    1,
		Timeout:    -1, // no per-run timeout: the watchdog is the only sentinel
		StallAfter: 30 * time.Millisecond,
		StallDump:  &dump,
		Metrics:    reg,
		Execute: func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
			time.Sleep(250 * time.Millisecond) // a silent, wedged campaign
			rec := RunRecord{Scenario: spec.Scenario, Trial: spec.Trial}
			rec.Technique = spec.Technique
			rec.Seed = spec.Seed
			claim()
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Error != "" {
		t.Fatalf("run failed: %+v", recs[0])
	}
	if got := reg.Counter("campaign_watchdog_stalls_total").Value(); got < 1 {
		t.Fatalf("watchdog_stalls_total = %d, want >= 1", got)
	}
	out := dump.String()
	if !strings.Contains(out, "no run completed for") || !strings.Contains(out, "goroutine") {
		t.Fatalf("stall dump missing diagnosis:\n%s", out)
	}
}

func TestWatchdogQuietOnHealthyCampaign(t *testing.T) {
	reg := telemetry.NewRegistry()
	var dump bytes.Buffer
	if _, err := Run(smallPlan(t, 34), Options{
		Workers:    2,
		StallAfter: 10 * time.Second,
		StallDump:  &dump,
		Metrics:    reg,
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign_watchdog_stalls_total").Value(); got != 0 {
		t.Fatalf("watchdog fired %d times on a healthy campaign", got)
	}
	if dump.Len() != 0 {
		t.Fatalf("unexpected stall dump:\n%s", dump.String())
	}
}

// TestSupervisedProgressDeterministicAcrossWorkerCounts is the /progress
// satellite check: per-cell error and skip counts in the snapshot are
// scheduling-independent, so the JSON-marshaled snapshot is byte-identical at
// workers 1 and 8.
func TestSupervisedProgressDeterministicAcrossWorkerCounts(t *testing.T) {
	var snapshots []string
	for _, workers := range []int{1, 8} {
		p := smallPlan(t, 35)
		prog := NewProgress(p)
		recs, err := Run(p, Options{
			Workers:  workers,
			OnRecord: prog.Record,
			Execute:  failingStub("spam"),
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := prog.Snapshot()
		if snap.Done != len(recs) || snap.Planned != len(p.Specs) {
			t.Fatalf("workers=%d: snapshot %+v vs %d records", workers, snap, len(recs))
		}
		if snap.Errors != 2 {
			t.Fatalf("workers=%d: errors = %d, want 2 (both spam trials)", workers, snap.Errors)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, string(raw))
	}
	if snapshots[0] != snapshots[1] {
		t.Fatalf("progress snapshot diverges across worker counts:\n%s\nvs\n%s",
			snapshots[0], snapshots[1])
	}
}

// TestProgressSurfacesBreakerState pins the /progress annotation: a tripped
// cell shows its skip count and live breaker state; healthy cells show
// neither.
func TestProgressSurfacesBreakerState(t *testing.T) {
	p := smallPlan(t, 36)
	bs := NewBreakerSet(BreakerConfig{Consecutive: 1, Cooldown: 100})
	prog := NewProgress(p)
	prog.Breakers(bs)
	if _, err := Run(p, Options{
		Workers:  1,
		Breakers: bs,
		OnRecord: prog.Record,
		Execute:  failingStub("spam"),
	}); err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Skipped != 1 {
		t.Fatalf("snapshot skipped = %d, want 1 (second spam trial shed)", snap.Skipped)
	}
	var spam, healthy *CellProgress
	for i := range snap.Cells {
		switch snap.Cells[i].Technique {
		case "spam":
			spam = &snap.Cells[i]
		default:
			healthy = &snap.Cells[i]
		}
	}
	if spam == nil || spam.Breaker != "open" || spam.Skipped != 1 || spam.Errors != 1 {
		t.Fatalf("spam cell = %+v, want open breaker with 1 error + 1 skip", spam)
	}
	if healthy == nil || healthy.Breaker != "" || healthy.Skipped != 0 {
		t.Fatalf("healthy cell mislabeled: %+v", healthy)
	}
}

// TestBudgetObserveTripsExactlyOnce covers the budget state machine directly:
// the trip is edge-triggered so the abort counter and context cancel fire
// once no matter how many failures follow.
func TestBudgetObserveTripsExactlyOnce(t *testing.T) {
	b := &budgetState{budget: FailureBudget{Fraction: 0.25, MinRuns: 4}}
	var trips atomic.Int32
	for i := 0; i < 12; i++ {
		if b.observe(true) {
			trips.Add(1)
		}
	}
	if trips.Load() != 1 {
		t.Fatalf("budget tripped %d times, want exactly once", trips.Load())
	}
	completed, errs, tripped := b.snapshot()
	if completed != 12 || errs != 12 || !tripped {
		t.Fatalf("snapshot = (%d, %d, %v)", completed, errs, tripped)
	}
}
