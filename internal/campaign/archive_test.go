package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/core"
	"safemeasure/internal/telemetry"
)

// randRunRecord samples the RunRecord space, including sparse corners: error
// records (all measurement fields zero), empty slices, and zero floats.
func randRunRecord(rng *rand.Rand) RunRecord {
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	rec := RunRecord{
		Scenario:   pick("open", "keyword-rst", "dns-poison"),
		Impairment: pick("", "lossy20", "jitter"),
		Trial:      rng.Intn(500),
		Record: core.Record{
			Technique: pick("direct", "vpn-relay", "spoofed-dns", "spoofed-smtp"),
			Seed:      rng.Int63(),
		},
	}
	if rng.Intn(8) == 0 {
		// Failed run: identity plus error, nothing else.
		rec.Error = pick("lab: link down", "panic: index out of range", "timeout")
		return rec
	}
	rec.Target = "198.51.100.7:80"
	rec.Stealth = rng.Intn(2) == 0
	rec.Verdict = pick("censored", "accessible", "inconclusive")
	rec.Mechanism = pick("", "tcp-rst", "dns-nxdomain")
	rec.Probes = rng.Intn(10)
	rec.Cover = rng.Intn(10)
	rec.Attempts = 1 + rng.Intn(3)
	for i := 0; i < rng.Intn(4); i++ {
		rec.CoverAddresses = append(rec.CoverAddresses, fmt.Sprintf("203.0.113.%d", i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		rec.Evidence = append(rec.Evidence, pick("rst seen", "empty answer", "truncated reply"))
	}
	rec.ElapsedMS = float64(rng.Intn(100000)) / 8
	rec.Retained = rng.Intn(2) == 0
	rec.Alerts = rng.Intn(5)
	rec.Score = float64(rng.Intn(80)) / 4
	rec.Entropy = float64(rng.Intn(32)) / 8
	rec.Implicated = rng.Intn(6)
	rec.Flagged = rng.Intn(2) == 0
	rec.GroundTruth = rng.Intn(2) == 0
	rec.Correct = rng.Intn(2) == 0
	return rec
}

// TestFlattenUnflattenRoundTrip is the core archival property: record →
// observations → record is the identity, for sparse and dense records alike.
func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		want := randRunRecord(rng)
		obs := FlattenRecord(want)
		got, err := UnflattenRecord(obs)
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rec %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestFlattenRoundTripThroughBinary runs the full pipeline: record →
// observations → binary encoding → observations → ReadRecords → record.
// Every sampled record is its own run, so ReadRecords returns the
// error-free records in write order and then the held error records.
func TestFlattenRoundTripThroughBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs []RunRecord
	var buf bytes.Buffer
	w := archival.NewBinaryWriter(&buf)
	sink := NewObservationSink(w)
	for i := 0; i < 50; i++ {
		rec := randRunRecord(rng)
		recs = append(recs, rec)
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := readRecords(t, buf.Bytes(), archival.TailStrict)
	if err != nil {
		t.Fatal(err)
	}
	var want, failed []RunRecord
	for _, rec := range recs {
		if rec.Error != "" {
			failed = append(failed, rec)
		} else {
			want = append(want, rec)
		}
	}
	if want = append(want, failed...); !reflect.DeepEqual(got, want) {
		t.Fatalf("pipeline round trip diverged: got %d records, want %d", len(got), len(recs))
	}
}

// TestFlattenRowIdentity checks every row carries the run's full cell
// identity and a unique content-derived observation ID.
func TestFlattenRowIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rec := randRunRecord(rng)
	rec.CoverAddresses = []string{"203.0.113.1", "203.0.113.2"}
	rec.Evidence = []string{"rst seen"}
	obs := FlattenRecord(rec)
	if len(obs) == 0 {
		t.Fatal("no rows")
	}
	run := archival.RunID(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
	seen := map[uint64]bool{}
	for _, o := range obs {
		if o.Run != run {
			t.Fatalf("row %+v has run %d, want %d", o, o.Run, run)
		}
		if o.Technique != rec.Technique || o.Scenario != rec.Scenario ||
			o.Impairment != rec.Impairment || o.Trial != rec.Trial || o.Seed != rec.Seed {
			t.Fatalf("row %+v lost cell identity", o)
		}
		if o.ID == 0 || seen[o.ID] {
			t.Fatalf("row %+v has duplicate or zero id", o)
		}
		seen[o.ID] = true
		if o.ID != archival.ObservationID(o.Run, o.Type, o.Seq) {
			t.Fatalf("row %+v id not content-derived", o)
		}
	}
}

// TestUnflattenRejectsMixedRuns guards the batch-grouping invariant.
func TestUnflattenRejectsMixedRuns(t *testing.T) {
	a := FlattenRecord(RunRecord{Scenario: "open", Trial: 1,
		Record: core.Record{Technique: "direct", Seed: 1, Verdict: "accessible"}})
	b := FlattenRecord(RunRecord{Scenario: "open", Trial: 2,
		Record: core.Record{Technique: "direct", Seed: 2, Verdict: "censored"}})
	if _, err := UnflattenRecord(append(a, b...)); err == nil {
		t.Fatal("mixed-run batch accepted")
	}
	if _, err := UnflattenRecord(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestUnflattenAnyOrder: rows may arrive in any order (e.g. after a sort by
// type in an analysis pipeline) and still reconstruct the record.
func TestUnflattenAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	want := randRunRecord(rng)
	want.Error = ""
	want.CoverAddresses = []string{"a", "b", "c"}
	want.Evidence = []string{"x", "y"}
	obs := FlattenRecord(want)
	rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
	got, err := UnflattenRecord(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlattenTraceJoinsRecordRun: trace rows share the record rows' run ID
// for the same cell.
func TestFlattenTraceJoinsRecordRun(t *testing.T) {
	rec := RunRecord{Scenario: "open", Impairment: "lossy20", Trial: 7,
		Record: core.Record{Technique: "spoofed-dns", Seed: 99, Verdict: "censored"}}
	rt := RunTrace{Scenario: "open", Impairment: "lossy20", Technique: "spoofed-dns",
		Trial: 7, Seed: 99,
		Events: []telemetry.Event{
			{T: 10, Kind: "probe-sent", Src: "10.0.0.1", Dst: "198.51.100.7", Detail: "GET /"},
			{T: 20, Kind: "rst-seen", Src: "198.51.100.7", Dst: "10.0.0.1"},
		}}
	recObs := FlattenRecord(rec)
	trObs := FlattenTrace(rt)
	if len(trObs) != 2 {
		t.Fatalf("trace rows = %d, want 2", len(trObs))
	}
	if recObs[0].Run != trObs[0].Run {
		t.Fatalf("trace run %d != record run %d", trObs[0].Run, recObs[0].Run)
	}
	for i, o := range trObs {
		if o.Type != archival.TypeTrace || o.Seq != i {
			t.Fatalf("trace row %d: %+v", i, o)
		}
	}
	// Trace rows mixed into a record batch are ignored by UnflattenRecord.
	got, err := UnflattenRecord(append(recObs, trObs...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("got %+v want %+v", got, rec)
	}
}

// TestFlattenWritesBatchOrder pins the order archival.ContinuesBatch
// relies on: a run's trace rows then its record rows form one batch, and a
// second batch of the same run — a re-run appended right after the run's
// error record — starts a new one.
func TestFlattenWritesBatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		rec := randRunRecord(rng)
		rt := RunTrace{Scenario: rec.Scenario, Impairment: rec.Impairment, Technique: rec.Technique,
			Trial: rec.Trial, Seed: rec.Seed, Events: make([]telemetry.Event, rng.Intn(3))}
		rows := append(FlattenTrace(rt), FlattenRecord(rec)...)
		for j := 1; j < len(rows); j++ {
			if !archival.ContinuesBatch(&rows[j-1], &rows[j]) {
				t.Fatalf("rec %d: row %d (%s) does not continue row %d (%s)",
					i, j, rows[j].Type, j-1, rows[j-1].Type)
			}
		}
		errRows := FlattenRecord(ErrorRecord(RunSpec{Technique: rec.Technique, Scenario: rec.Scenario,
			Impairment: rec.Impairment, Trial: rec.Trial, Seed: rec.Seed}, fmt.Errorf("timeout")))
		last := errRows[len(errRows)-1]
		if archival.ContinuesBatch(&last, &rows[0]) {
			t.Fatalf("rec %d: a re-run's first row (%s) continues the error batch", i, rows[0].Type)
		}
	}
}
