package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/telemetry"
)

// stubExecutor returns a fast, claiming executor whose records carry the
// spec coordinates — enough for submitters to verify they got their own
// result back.
func stubExecutor() Executor {
	return func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
		rec := RunRecord{Scenario: spec.Scenario, Impairment: recordImpairment(spec.Impairment),
			Trial: spec.Trial, Correct: true}
		rec.Technique = spec.Technique
		rec.Seed = spec.Seed
		rec.Verdict = "censored"
		claim()
		return rec
	}
}

func poolSpec(i int) RunSpec {
	return RunSpec{Index: i, Technique: "overt-dns", Scenario: "dns-poison",
		Trial: i, Seed: int64(1000 + i)}
}

func TestPoolExecutesConcurrentSubmitters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(Options{Workers: 4, Metrics: reg, Execute: stubExecutor()})
	const n = 32
	recs := make([]RunRecord, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := p.Do(context.Background(), poolSpec(i))
			if err != nil {
				t.Errorf("Do(%d): %v", i, err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Trial != i || rec.Seed != int64(1000+i) || rec.Error != "" {
			t.Fatalf("submitter %d got someone else's record: %+v", i, rec)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	if got := reg.Counter(telemetry.Labels("campaign_runs_total", "family", "overt")).Value(); got != n {
		t.Fatalf("campaign_runs_total{family=overt} = %d, want %d", got, n)
	}
}

func TestPoolRejectsAfterShutdown(t *testing.T) {
	p := NewPool(Options{Workers: 1, Execute: stubExecutor()})
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(context.Background(), poolSpec(0)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Shutdown = %v, want ErrPoolClosed", err)
	}
	// Shutdown is idempotent.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
}

func TestPoolDoHonorsSubmitterContext(t *testing.T) {
	block := make(chan struct{})
	exec := func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
		<-block
		return stubExecutor()(spec, 0, claim)
	}
	p := NewPool(Options{Workers: 1, Timeout: -1, Execute: exec})
	// Occupy the only worker.
	go p.Do(context.Background(), poolSpec(0))
	time.Sleep(10 * time.Millisecond)
	// A second submitter with a canceled context must not wait forever for
	// the busy worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Do(ctx, poolSpec(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with canceled ctx = %v, want context.Canceled", err)
	}
	close(block)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after unblocking = %v", err)
	}
}

func TestPoolShutdownAbandonsOnExpiredContext(t *testing.T) {
	block := make(chan struct{})
	exec := func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
		<-block
		return stubExecutor()(spec, 0, claim)
	}
	p := NewPool(Options{Workers: 1, Timeout: -1, Grace: 10 * time.Millisecond, Execute: exec})
	recCh := make(chan RunRecord, 1)
	go func() {
		rec, err := p.Do(context.Background(), poolSpec(0))
		if err != nil {
			t.Errorf("dispatched Do returned error %v, want a record", err)
		}
		recCh <- rec
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick up the job
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with a wedged run returned nil, want deadline error")
	}
	select {
	case rec := <-recCh:
		// A dispatched spec always yields a record — here the explicit
		// abandoned-run error record, never silence.
		if rec.Error == "" {
			t.Fatalf("abandoned run produced a success record: %+v", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submitter never got a record for the abandoned run")
	}
	close(block) // release the wedged goroutine
}

// TestPoolDoCanceledContextRunsNothing: a submitter whose context is already
// done must never dispatch, even when a worker is idle — a bare select
// between the two ready cases would pick the send about half the time.
func TestPoolDoCanceledContextRunsNothing(t *testing.T) {
	var executed atomic.Int64
	exec := func(spec RunSpec, horizon time.Duration, claim func() bool) RunRecord {
		executed.Add(1)
		return stubExecutor()(spec, horizon, claim)
	}
	p := NewPool(Options{Workers: 1, Execute: exec})
	defer p.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if _, err := p.Do(ctx, poolSpec(i)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Do %d with canceled ctx = %v, want context.Canceled", i, err)
		}
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("canceled submitters ran %d specs, want 0", n)
	}
}

// TestPoolMatchesRunContext pins batch/service parity: one plan run through
// RunContext and spec by spec through Pool.Do yields byte-identical sorted
// records and identical deterministic campaign counters.
func TestPoolMatchesRunContext(t *testing.T) {
	counters := func(reg *telemetry.Registry) map[string]int64 {
		out := map[string]int64{
			"campaign_errors_total":         reg.Counter("campaign_errors_total").Value(),
			"campaign_run_virtual_ms_count": reg.HistogramBuckets("campaign_run_virtual_ms", 1, 2, 24).Count(),
		}
		for _, fam := range []string{"overt", "mimicry", "spoofed"} {
			for _, name := range []string{"campaign_runs_total", "campaign_correct_total", "campaign_inconclusive_total"} {
				key := telemetry.Labels(name, "family", fam)
				out[key] = reg.Counter(key).Value()
			}
		}
		return out
	}
	// Seed 11 gives this 32-run plan two error records and one
	// inconclusive verdict, so every counter is exercised.
	plan, err := NewPlan(PlanConfig{
		Techniques:  []string{"ddos", "spam", "overt-dns", "overt-http", "spoofed-dns", "spoofed-syn"},
		Scenarios:   []string{"keyword-rst", "open"},
		Impairments: []string{"none", "lossy20"},
		Behaviors:   []string{"none", "partial-blockpage"},
		Trials:      1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		batchReg := telemetry.NewRegistry()
		batch, err := Run(plan, Options{Workers: workers, Metrics: batchReg})
		if err != nil {
			t.Fatal(err)
		}
		poolReg := telemetry.NewRegistry()
		p := NewPool(Options{Workers: workers, Metrics: poolReg})
		served := make([]RunRecord, len(plan.Specs))
		var wg sync.WaitGroup
		for i, spec := range plan.Specs {
			wg.Add(1)
			go func(i int, spec RunSpec) {
				defer wg.Done()
				rec, err := p.Do(context.Background(), spec)
				if err != nil {
					t.Errorf("Do(%d): %v", i, err)
				}
				served[i] = rec
			}(i, spec)
		}
		wg.Wait()
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := sortedJSONL(t, served), sortedJSONL(t, batch); got != want {
			t.Fatalf("workers=%d: Pool.Do records differ from RunContext:\n--- batch ---\n%s\n--- pool ---\n%s",
				workers, want, got)
		}
		if got, want := counters(poolReg), counters(batchReg); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: counters differ:\nbatch %v\npool  %v", workers, want, got)
		}
	}
}
