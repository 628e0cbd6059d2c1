package campaign

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

func recordFor(tech string) core.Record { return core.Record{Technique: tech} }

// runInstrumented executes the plan with full telemetry at the given worker
// count and returns the scheduling-independent canonical forms: the final
// counter exposition and the sorted archive rows, trace rows included.
func runInstrumented(t *testing.T, seed int64, workers int) (counters, trace string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	recs, err := Run(smallPlan(t, seed), Options{
		Workers:  workers,
		Metrics:  reg,
		OnRecord: sink.Record,
		OnTrace:  sink.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("%s/%s trial %d failed: %s", rec.Technique, rec.Scenario, rec.Trial, rec.Error)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"trace"`) {
		t.Fatal("no trace rows archived")
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	return reg.Snapshot().CountersText(), strings.Join(lines, "\n")
}

func TestTelemetryDeterministicAcrossWorkerCounts(t *testing.T) {
	// The tentpole acceptance check: same campaign seed at -workers 1 and
	// -workers 8 yields byte-identical final counters and (sorted)
	// identical trace event streams. Counters commute because they are
	// integer atomic adds; traces match because each run owns its ring and
	// stamps events with virtual time.
	c1, t1 := runInstrumented(t, 42, 1)
	c8, t8 := runInstrumented(t, 42, 8)
	if c1 != c8 {
		t.Errorf("final counters differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", c1, c8)
	}
	if t1 != t8 {
		t.Errorf("sorted trace streams differ across worker counts")
	}
	if t1 == "" {
		t.Fatal("no trace events emitted")
	}
	// Spot-check that the stream actually exercised the instrumented paths.
	for _, kind := range []string{telemetry.EvProbeSent, telemetry.EvCensorAlert, telemetry.EvMVRDiscard} {
		if !strings.Contains(t1, `"name":"`+kind+`"`) {
			t.Errorf("trace stream has no %q events", kind)
		}
	}
	for _, name := range []string{
		"netsim_forwarded_total", "surveil_packets_seen_total",
		"censor_ids_packets_total", `campaign_runs_total{family="mimicry"}`,
	} {
		if !strings.Contains(c1, name) {
			t.Errorf("counter exposition missing %s:\n%s", name, c1)
		}
	}
}

func TestPoolMetricsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := smallPlan(t, 3)
	recs, err := Run(p, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var runs, correct int64
	for _, fam := range []string{"overt", "mimicry", "spoofed"} {
		runs += reg.Counter(telemetry.Labels("campaign_runs_total", "family", fam)).Value()
		correct += reg.Counter(telemetry.Labels("campaign_correct_total", "family", fam)).Value()
	}
	if runs != int64(len(p.Specs)) {
		t.Errorf("campaign_runs_total = %d, want %d", runs, len(p.Specs))
	}
	var wantCorrect int64
	for _, rec := range recs {
		if rec.Error == "" && rec.Correct {
			wantCorrect++
		}
	}
	if correct != wantCorrect {
		t.Errorf("campaign_correct_total = %d, want %d", correct, wantCorrect)
	}
	if got := reg.Gauge("campaign_queue_depth").Value(); got != 0 {
		t.Errorf("campaign_queue_depth after completion = %d, want 0", got)
	}
	if got := reg.Gauge("campaign_runs_inflight").Value(); got != 0 {
		t.Errorf("campaign_runs_inflight after completion = %d, want 0", got)
	}
	h := reg.Histogram("campaign_run_virtual_ms")
	if h.Count() != int64(len(p.Specs)) {
		t.Errorf("campaign_run_virtual_ms count = %d, want %d", h.Count(), len(p.Specs))
	}
}

func TestProgressTracksCells(t *testing.T) {
	p := smallPlan(t, 5) // dns-poison x 3 techniques x 2 trials
	prog := NewProgress(p)
	s := prog.Snapshot()
	if s.Planned != len(p.Specs) || s.Done != 0 {
		t.Fatalf("initial snapshot: planned=%d done=%d, want %d/0", s.Planned, s.Done, len(p.Specs))
	}
	if len(s.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(s.Cells))
	}
	prog.Record(RunRecord{Scenario: "dns-poison", Trial: 0, Correct: true,
		Record: recordFor("spam")})
	prog.Record(RunRecord{Scenario: "dns-poison", Trial: 1, Error: "boom",
		Record: recordFor("spam")})
	s = prog.Snapshot()
	if s.Done != 2 || s.Errors != 1 {
		t.Fatalf("snapshot after 2 records: done=%d errors=%d", s.Done, s.Errors)
	}
	for _, c := range s.Cells {
		if c.Technique != "spam" {
			if c.Done != 0 {
				t.Errorf("cell %s/%s done=%d, want 0", c.Scenario, c.Technique, c.Done)
			}
			continue
		}
		if c.Planned != 2 || c.Done != 2 || c.Correct != 1 || c.Errors != 1 {
			t.Errorf("spam cell = %+v", c)
		}
	}
}

// TestObservationSinkTraceRowsCarryRunCoordinates: a staged trace lands
// as sequence-numbered rows carrying the run's coordinates, in the same
// batch as the run's record rows.
func TestObservationSinkTraceRowsCarryRunCoordinates(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	sink.Trace(fakeTrace("open", "overt-dns", 1))
	if buf.Len() != 0 || sink.Count() != 0 {
		t.Fatal("a trace was written before its run's record")
	}
	sink.Record(fakeRecord("open", "overt-dns", 1))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 2 + len(FlattenRecord(fakeRecord("open", "overt-dns", 1))); sink.Count() != want {
		t.Fatalf("count = %d, want %d", sink.Count(), want)
	}
	out := buf.String()
	if !strings.Contains(out, `"type":"trace"`) || !strings.Contains(out, `"seq":1`) {
		t.Fatalf("trace rows lack type or sequence numbers:\n%s", out)
	}
	if !strings.Contains(out, `"scenario":"open"`) || !strings.Contains(out, `"technique":"overt-dns"`) {
		t.Fatalf("trace rows lack run coordinates:\n%s", out)
	}
}
