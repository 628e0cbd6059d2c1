package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
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

// TestWatchdogFiresOnStall wedges the one stage a per-run timeout does not
// cover: the run itself finishes well inside its 20ms timeout, but the
// record callback (a sink stuck on its writer) blocks for 500ms, so no
// further run completes and the watchdog — at DefaultStallFactor× the
// timeout — must report the stall.
func TestWatchdogFiresOnStall(t *testing.T) {
	p := smallPlan(t, 33).Filter(func(s RunSpec) bool { return s.Index == 0 })
	reg := telemetry.NewRegistry()
	var dump bytes.Buffer
	recs, err := Run(p, Options{
		Workers:   1,
		Timeout:   20 * time.Millisecond,
		StallDump: &dump,
		Metrics:   reg,
		Execute:   failingStub("no-such"),
		OnRecord:  func(RunRecord) { time.Sleep(500 * time.Millisecond) },
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
		Workers:   2,
		StallDump: &dump,
		Metrics:   reg,
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

// TestSupervisedProgressDeterministicAcrossWorkerCounts pins the invariant
// every supervision mechanism must keep: with a sick cell (every spam run
// executes, then fails) and an armed failure budget that does not trip, the
// streamed record set, its aggregate, and the /progress snapshot are
// byte-identical at workers 1, 2 and 8. Nothing may shed or reorder work
// by scheduling.
func TestSupervisedProgressDeterministicAcrossWorkerCounts(t *testing.T) {
	sickSpam := func(spec RunSpec, horizon time.Duration, claim func() bool) RunRecord {
		rec := Execute(spec, horizon)
		claim()
		if spec.Technique == "spam" {
			return ErrorRecord(spec, errors.New("stub: vantage dead"))
		}
		return rec
	}
	var outputs []string
	for _, workers := range []int{1, 2, 8} {
		p := smallPlan(t, 35)
		prog := NewProgress(p)
		var mu sync.Mutex
		var lines []string
		recs, err := Run(p, Options{
			Workers: workers,
			// The worst transient (both spam failures among the first four
			// completions) is exactly 0.5: armed, but within budget.
			Budget:  &FailureBudget{Fraction: 0.5, MinRuns: 4},
			Execute: sickSpam,
			OnRecord: func(rec RunRecord) {
				prog.Record(rec)
				raw, err := json.Marshal(rec)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				lines = append(lines, string(raw))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := prog.Snapshot()
		if snap.Done != len(recs) || snap.Planned != len(p.Specs) || len(lines) != len(p.Specs) {
			t.Fatalf("workers=%d: snapshot %+v, %d streamed, %d returned records",
				workers, snap, len(lines), len(recs))
		}
		if snap.Errors != 2 {
			t.Fatalf("workers=%d: errors = %d, want 2 (both spam trials)", workers, snap.Errors)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		outputs = append(outputs, strings.Join(lines, "\n")+"\n"+Aggregate(recs).Render()+string(raw))
	}
	for i, workers := range []int{2, 8} {
		if outputs[i+1] != outputs[0] {
			t.Fatalf("records, aggregate or progress diverge at workers=%d:\n%s\nvs workers=1:\n%s",
				workers, outputs[i+1], outputs[0])
		}
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
