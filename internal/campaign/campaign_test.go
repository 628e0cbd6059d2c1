package campaign

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

// smallPlan is a cheap, representative matrix: one censoring scenario with
// its three applicable techniques, two trials each.
func smallPlan(t *testing.T, seed int64) *Plan {
	t.Helper()
	p, err := NewPlan(PlanConfig{Scenarios: []string{"dns-poison"}, Trials: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCompletesInPlanOrder(t *testing.T) {
	p := smallPlan(t, 1)
	var streamed atomic.Int64
	recs, err := Run(p, Options{Workers: 3, OnRecord: func(RunRecord) { streamed.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(p.Specs) {
		t.Fatalf("records = %d, want %d", len(recs), len(p.Specs))
	}
	if int(streamed.Load()) != len(p.Specs) {
		t.Fatalf("OnRecord fired %d times, want %d", streamed.Load(), len(p.Specs))
	}
	for i, rec := range recs {
		spec := p.Specs[i]
		if rec.Error != "" {
			t.Fatalf("run %d (%s/%s) failed: %s", i, spec.Technique, spec.Scenario, rec.Error)
		}
		if rec.Technique != spec.Technique || rec.Scenario != spec.Scenario ||
			rec.Trial != spec.Trial || rec.Seed != spec.Seed {
			t.Fatalf("record %d out of plan order: %+v vs spec %+v", i, rec, spec)
		}
		if !rec.Correct {
			t.Errorf("%s/%s trial %d: verdict %s against ground truth %v",
				rec.Technique, rec.Scenario, rec.Trial, rec.Verdict, rec.GroundTruth)
		}
	}
}

// sortedJSONL marshals records one per line and sorts the lines — the
// scheduling-independent canonical form of a campaign output file.
func sortedJSONL(t *testing.T, recs []RunRecord) string {
	t.Helper()
	lines := make([]string, len(recs))
	for i, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	// The satellite acceptance check: same campaign seed, different worker
	// counts, byte-identical sorted JSONL.
	var outputs []string
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		sink := NewObservationSink(archival.NewJSONLWriter(&buf))
		recs, err := Run(smallPlan(t, 42), Options{Workers: workers, OnRecord: sink.Record})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		// The streamed archive and the returned slice hold the same records.
		streamed, err := readRecords(t, buf.Bytes(), archival.TailStrict)
		if err != nil {
			t.Fatal(err)
		}
		if sortedJSONL(t, streamed) != sortedJSONL(t, recs) {
			t.Fatalf("workers=%d: sink contents diverge from returned records", workers)
		}
		outputs = append(outputs, sortedJSONL(t, recs))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("worker count changed campaign results:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestImpairedCampaignDeterministicAcrossWorkerCounts extends the
// determinism guarantee to the impairment axis and the retry layer: lossy,
// reordering, and corrupting links draw all their randomness from the lab
// seed, and every hot-path counter (including retry counters) merges
// commutatively, so sorted records AND final counter values are
// byte-identical for any worker count.
func TestImpairedCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	var outputs, counters []string
	for _, workers := range []int{1, 4} {
		p, err := NewPlan(PlanConfig{
			Scenarios:   []string{"dns-poison"},
			Impairments: []string{"lossy20", "reorder", "corrupt"},
			Trials:      1,
			Seed:        99,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		recs, err := Run(p, Options{Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Error != "" {
				t.Fatalf("impaired run failed: %+v", rec)
			}
			if rec.Impairment == "" {
				t.Fatalf("impaired record lost its impairment: %+v", rec)
			}
		}
		outputs = append(outputs, sortedJSONL(t, recs))
		counters = append(counters, reg.Snapshot().CountersText())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("impaired records diverge across worker counts:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
	if counters[0] != counters[1] {
		t.Fatalf("impaired counters diverge across worker counts:\n%s\nvs\n%s", counters[0], counters[1])
	}
}

func TestRunRecoversPanics(t *testing.T) {
	p := smallPlan(t, 7)
	boom := p.Specs[2]
	recs, err := Run(p, Options{
		Workers: 2,
		Execute: func(spec RunSpec, horizon time.Duration, claim func() bool) RunRecord {
			if spec.Index == boom.Index {
				panic("lab exploded")
			}
			rec := Execute(spec, horizon)
			claim()
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == boom.Index {
			if !strings.Contains(rec.Error, "panic") || !strings.Contains(rec.Error, "lab exploded") {
				t.Fatalf("panic not captured: %+v", rec)
			}
			if rec.Technique != boom.Technique || rec.Seed != boom.Seed {
				t.Fatalf("panic record lost its coordinates: %+v", rec)
			}
		} else if rec.Error != "" {
			t.Fatalf("run %d poisoned by neighbour's panic: %s", i, rec.Error)
		}
	}
}

func TestRunTimesOutWedgedRuns(t *testing.T) {
	p := smallPlan(t, 8).Filter(func(s RunSpec) bool { return s.Index < 2 })
	recs, err := Run(p, Options{
		Workers: 2,
		Timeout: 20 * time.Millisecond,
		Execute: func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
			if spec.Index == 0 {
				time.Sleep(5 * time.Second) // a wedged simulator
			}
			// A fast stub, not a real lab run: the healthy run must finish
			// well inside the timeout even under -race instrumentation.
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
	if !strings.Contains(recs[0].Error, "timeout") {
		t.Fatalf("wedged run not timed out: %+v", recs[0])
	}
	if recs[1].Error != "" {
		t.Fatalf("healthy run caught the timeout: %+v", recs[1])
	}
}

// TestAbandonedRunPublishesNothing pins the pool's post-timeout contract:
// a wedged run the pool abandoned must lose the claim race, so it can never
// emit a trace or merge metrics after its timeout error record went out —
// and because publication is atomic, results are identical for any worker
// count. Run under -race, this also proves the claim gate is the only
// synchronization the abandoned goroutine needs.
func TestAbandonedRunPublishesNothing(t *testing.T) {
	const wedge = 150 * time.Millisecond
	var outputs, counters []string
	for _, workers := range []int{1, 8} {
		p := smallPlan(t, 11) // 6 specs
		wedged := p.Specs[1]
		reg := telemetry.NewRegistry()
		var mu sync.Mutex
		var traced []string
		settled := make(chan bool, 1) // claim outcome of the wedged run
		recs, err := Run(p, Options{
			Workers: workers,
			Timeout: 20 * time.Millisecond,
			Metrics: reg,
			Execute: func(spec RunSpec, _ time.Duration, claim func() bool) RunRecord {
				if spec.Index == wedged.Index {
					time.Sleep(wedge)
				}
				rec := RunRecord{Scenario: spec.Scenario, Trial: spec.Trial}
				rec.Technique = spec.Technique
				rec.Seed = spec.Seed
				ok := claim()
				if spec.Index == wedged.Index {
					settled <- ok
				}
				if !ok {
					return rec // abandoned: publish nothing
				}
				// The default executor's publication step, emulated: a trace
				// plus a shared-metric bump, both gated on the claim.
				mu.Lock()
				traced = append(traced, spec.Technique)
				mu.Unlock()
				reg.Counter("test_published_total").Inc()
				return rec
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Let the abandoned goroutine finish its claim attempt before
		// inspecting shared state (and before the test ends, for -race).
		if ok := <-settled; ok {
			t.Fatal("abandoned run won the claim race after its timeout record was emitted")
		}
		if !strings.Contains(recs[wedged.Index].Error, "timeout") {
			t.Fatalf("wedged run record: %+v", recs[wedged.Index])
		}
		mu.Lock()
		if len(traced) != len(p.Specs)-1 {
			t.Fatalf("traces = %v, want one per healthy run", traced)
		}
		mu.Unlock()
		if got := reg.Counter("test_published_total").Value(); got != int64(len(p.Specs)-1) {
			t.Fatalf("published = %d, want %d", got, len(p.Specs)-1)
		}
		outputs = append(outputs, sortedJSONL(t, recs))
		counters = append(counters, reg.Snapshot().CountersText())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("records diverge across worker counts:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
	if counters[0] != counters[1] {
		t.Fatalf("counters diverge across worker counts:\n%s\nvs\n%s", counters[0], counters[1])
	}
}

func TestRunRejectsEmptyPlan(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := Run(&Plan{}, Options{}); err == nil {
		t.Fatal("empty plan accepted")
	}
}

func TestExecuteErrorPaths(t *testing.T) {
	rec := Execute(RunSpec{Technique: "no-such", Scenario: "open"}, 0)
	if !strings.Contains(rec.Error, "unknown technique") {
		t.Fatalf("rec = %+v", rec)
	}
	rec = Execute(RunSpec{Technique: "spam", Scenario: "no-such"}, 0)
	if !strings.Contains(rec.Error, "unknown scenario") {
		t.Fatalf("rec = %+v", rec)
	}
}
