package campaign

import (
	"testing"

	"safemeasure/internal/telemetry"
)

// spec returns a RunSpec in the single cell the breaker tests exercise.
func breakerSpec() RunSpec {
	return RunSpec{Technique: "spam", Scenario: "dns-poison", Impairment: "none"}
}

func TestBreakerConsecutiveLifecycle(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Consecutive: 3, Cooldown: 2})
	reg := telemetry.NewRegistry()
	bs.instrument(reg)
	spec := breakerSpec()

	// Closed: failures below the threshold keep the breaker closed, and a
	// success resets the streak.
	for i := 0; i < 2; i++ {
		if allow, _ := bs.Allow(spec); !allow {
			t.Fatalf("closed breaker refused run %d", i)
		}
		bs.Record(spec, true, false)
	}
	bs.Record(spec, false, false) // streak broken
	for i := 0; i < 3; i++ {
		if allow, _ := bs.Allow(spec); !allow {
			t.Fatal("breaker opened before the consecutive threshold")
		}
		bs.Record(spec, true, false)
	}
	if got := bs.State(spec.Scenario, spec.Impairment, spec.Technique); got != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if got := reg.Counter("campaign_breaker_open_total").Value(); got != 1 {
		t.Fatalf("open_total = %d, want 1", got)
	}

	// Open: exactly Cooldown runs are skipped.
	for i := 0; i < 2; i++ {
		if allow, _ := bs.Allow(spec); allow {
			t.Fatalf("open breaker allowed run %d of the cooldown", i)
		}
	}
	if got := reg.Counter("campaign_breaker_skipped_total").Value(); got != 2 {
		t.Fatalf("skipped_total = %d, want 2", got)
	}

	// Half-open: one probe allowed, contemporaries skipped.
	allow, probe := bs.Allow(spec)
	if !allow || !probe {
		t.Fatalf("half-open Allow = (%v, %v), want probe", allow, probe)
	}
	if allow, _ := bs.Allow(spec); allow {
		t.Fatal("second run allowed while the probe is in flight")
	}

	// Probe failure re-opens with a fresh cooldown.
	bs.Record(spec, true, true)
	if got := bs.State(spec.Scenario, spec.Impairment, spec.Technique); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	for i := 0; i < 2; i++ {
		bs.Allow(spec)
	}
	allow, probe = bs.Allow(spec)
	if !allow || !probe {
		t.Fatal("no probe after the second cooldown")
	}

	// Probe success closes and clears the failure history: the next failure
	// starts a fresh streak.
	bs.Record(spec, false, true)
	if got := bs.State(spec.Scenario, spec.Impairment, spec.Technique); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	bs.Record(spec, true, false)
	bs.Record(spec, true, false)
	if allow, _ := bs.Allow(spec); !allow {
		t.Fatal("old streak survived the probe reset")
	}

	// The per-cell state gauge tracked the transitions.
	g := reg.Gauge(telemetry.Labels("campaign_breaker_state",
		"scenario", "dns-poison", "impairment", "", "technique", "spam"))
	if g.Value() != int64(BreakerClosed) {
		t.Fatalf("state gauge = %d, want closed(0)", g.Value())
	}
}

func TestBreakerRateTrigger(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Rate: 0.5, Window: 4, Cooldown: 1})
	spec := breakerSpec()
	// Alternate success/failure: the rate sits at exactly 0.5 once the
	// window fills, which meets the >= threshold.
	outcomes := []bool{true, false, true, false}
	for _, failed := range outcomes {
		if allow, _ := bs.Allow(spec); !allow {
			t.Fatal("breaker tripped before the window filled")
		}
		bs.Record(spec, failed, false)
	}
	if got := bs.State(spec.Scenario, spec.Impairment, spec.Technique); got != BreakerOpen {
		t.Fatalf("state after 50%% error rate over a full window = %v, want open", got)
	}
}

func TestBreakerRateNeedsFullWindow(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Rate: 0.5, Window: 8})
	spec := breakerSpec()
	// Three straight failures are a 100% rate, but over a quarter-full
	// window — too little evidence to trip.
	for i := 0; i < 3; i++ {
		bs.Record(spec, true, false)
	}
	if got := bs.State(spec.Scenario, spec.Impairment, spec.Technique); got != BreakerClosed {
		t.Fatalf("state = %v, want closed until the window fills", got)
	}
}

func TestBreakerCellsAreIndependent(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Consecutive: 1})
	sick := breakerSpec()
	healthy := RunSpec{Technique: "overt-dns", Scenario: "dns-poison", Impairment: "none"}
	bs.Record(sick, true, false)
	if allow, _ := bs.Allow(sick); allow {
		t.Fatal("sick cell not tripped")
	}
	if allow, _ := bs.Allow(healthy); !allow {
		t.Fatal("healthy cell caught the sick cell's breaker")
	}
}

func TestBreakerNilSetAllowsEverything(t *testing.T) {
	var bs *BreakerSet
	if allow, probe := bs.Allow(breakerSpec()); !allow || probe {
		t.Fatal("nil set must allow without probing")
	}
	bs.Record(breakerSpec(), true, false) // must not panic
	bs.instrument(nil)
	if got := bs.State("dns-poison", "", "spam"); got != BreakerClosed {
		t.Fatalf("nil set state = %v, want closed", got)
	}
}

func TestIsBreakerSkip(t *testing.T) {
	skip := ErrorRecord(breakerSpec(), errBreakerOpen)
	if !IsBreakerSkip(skip) {
		t.Fatal("skip record not recognized")
	}
	if IsBreakerSkip(RunRecord{Error: "lab: boom"}) || IsBreakerSkip(RunRecord{}) {
		t.Fatal("non-skip records misclassified")
	}
}
