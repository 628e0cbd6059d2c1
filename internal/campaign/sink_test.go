package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

func fakeRecord(scenario, technique string, trial int) RunRecord {
	rec := RunRecord{Scenario: scenario, Trial: trial}
	rec.Technique = technique
	rec.Seed = int64(trial)
	rec.Verdict = "censored"
	rec.Correct = true
	return rec
}

// fakeTrace is a two-event trace for fakeRecord's run.
func fakeTrace(scenario, technique string, trial int) RunTrace {
	return RunTrace{Scenario: scenario, Technique: technique, Trial: trial, Seed: int64(trial),
		Events: []telemetry.Event{
			{T: 100, Kind: telemetry.EvProbeSent, Src: "10.1.0.10", Dst: "203.0.113.53"},
			{T: 250, Kind: telemetry.EvTTLExpiry, Detail: "edge"},
		}}
}

// readRecords reads every record ReadRecords yields from an encoded archive.
func readRecords(t *testing.T, b []byte, tail archival.TailPolicy) ([]RunRecord, error) {
	t.Helper()
	rd, err := archival.NewReader(bytes.NewReader(b), tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []RunRecord
	err = ReadRecords(rd, func(rec RunRecord) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// readRows decodes every row of an encoded archive.
func readRows(t *testing.T, b []byte) []archival.Observation {
	t.Helper()
	rd, err := archival.NewReader(bytes.NewReader(b), archival.TailStrict, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []archival.Observation
	for {
		o, err := rd.Next()
		if err != nil {
			break
		}
		rows = append(rows, o)
	}
	return rows
}

func TestObservationSinkRoundtrip(t *testing.T) {
	want := []RunRecord{
		fakeRecord("dns-poison", "spam", 0),
		fakeRecord("dns-poison", "spam", 1),
		fakeRecord("open", "overt-dns", 0),
	}
	for _, format := range []archival.Format{archival.FormatJSONL, archival.FormatBinary} {
		var buf bytes.Buffer
		sink := NewObservationSink(archival.NewWriter(&buf, format))
		for _, rec := range want {
			sink.Record(rec)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if rows := len(FlattenRecord(want[0])); sink.Count() != rows*len(want) {
			t.Fatalf("%v: count = %d rows, want %d", format, sink.Count(), rows*len(want))
		}
		got, err := readRecords(t, buf.Bytes(), archival.TailStrict)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: read back %+v, want %+v", format, got, want)
		}
	}
}

// TestObservationSinkConcurrentWrites: concurrent workers each stage a
// trace and then write its record; every run must land as one contiguous
// group holding its trace rows and its record rows.
func TestObservationSinkConcurrentWrites(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink.Trace(fakeTrace("open", "spam", i))
			sink.Record(fakeRecord("open", "spam", i))
		}(i)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.staged) != 0 {
		t.Fatalf("%d staged traces never written", len(sink.staged))
	}
	perRun := len(FlattenTrace(fakeTrace("open", "spam", 0))) + len(FlattenRecord(fakeRecord("open", "spam", 0)))
	rows := readRows(t, buf.Bytes())
	if len(rows) != n*perRun {
		t.Fatalf("%d rows, want %d", len(rows), n*perRun)
	}
	for i := 0; i < len(rows); i += perRun {
		group := rows[i : i+perRun]
		traces := 0
		for _, o := range group {
			if o.Run != group[0].Run {
				t.Fatalf("rows %d..%d interleave runs %d and %d", i, i+perRun, group[0].Run, o.Run)
			}
			if o.Type == archival.TypeTrace {
				traces++
			}
		}
		if traces != 2 {
			t.Fatalf("run %d: %d trace rows in its batch, want 2", group[0].Run, traces)
		}
	}
	recs, err := readRecords(t, buf.Bytes(), archival.TailStrict)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.Trial] {
			t.Fatalf("trial %d written twice", r.Trial)
		}
		seen[r.Trial] = true
	}
	if len(seen) != n {
		t.Fatalf("read %d records, want %d", len(seen), n)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestObservationSinkRetainsFirstError(t *testing.T) {
	sink := NewObservationSink(archival.NewJSONLWriter(&failWriter{after: 1})) // room for less than one row
	for i := 0; i < 100; i++ {
		sink.Record(fakeRecord("open", "spam", i))
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("sink swallowed the write error")
	}
}

// TestReadRecordsErrorFreeRecordWins pins the resume double-count fix: a
// run's error records are held back and dropped once an error-free record
// of the same run is read; several error records of one run count once.
func TestReadRecordsErrorFreeRecordWins(t *testing.T) {
	errRec := func(trial int) RunRecord {
		rec := RunRecord{Scenario: "open", Trial: trial}
		rec.Technique, rec.Seed, rec.Error = "spam", int64(trial), "run exceeded 1ns wall-clock timeout"
		return rec
	}
	ok := fakeRecord("open", "spam", 0)
	for _, tc := range []struct {
		name string
		in   []RunRecord
		want []RunRecord
	}{
		{"error-ok", []RunRecord{errRec(0), ok}, []RunRecord{ok}},
		{"error-error-ok", []RunRecord{errRec(0), errRec(0), ok}, []RunRecord{ok}},
		{"error-error", []RunRecord{errRec(0), errRec(0)}, []RunRecord{errRec(0)}},
		// Held errors come out at the end, after every error-free record.
		{"other-runs", []RunRecord{errRec(1), errRec(0), ok, errRec(1), fakeRecord("open", "spam", 2)},
			[]RunRecord{ok, fakeRecord("open", "spam", 2), errRec(1)}},
	} {
		var buf bytes.Buffer
		sink := NewObservationSink(archival.NewJSONLWriter(&buf))
		for _, rec := range tc.in {
			sink.Record(rec)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := readRecords(t, buf.Bytes(), archival.TailStrict)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestReadRecordsSkipsTraceOnlyGroups(t *testing.T) {
	var buf bytes.Buffer
	w := archival.NewJSONLWriter(&buf)
	w.WriteObservations(FlattenTrace(fakeTrace("open", "spam", 0)))
	w.WriteObservations(FlattenRecord(fakeRecord("open", "spam", 1)))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readRecords(t, buf.Bytes(), archival.TailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if want := []RunRecord{fakeRecord("open", "spam", 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	sink := NewObservationSink(archival.NewJSONLWriter(&buf))
	sink.Record(fakeRecord("open", "spam", 0))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if _, err := readRecords(t, []byte(good+"not json\n"+good), archival.TailTolerate); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if _, err := readRecords(t, []byte(good+`{"id":"1","run":"2","ty`), archival.TailStrict); err == nil {
		t.Fatal("strict read accepted a torn row")
	}
	recs, err := readRecords(t, nil, archival.TailStrict)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stream: %v, %v", recs, err)
	}
}

// writeArchiveFile writes recs to path, one batch each.
func writeArchiveFile(t *testing.T, path string, recs ...RunRecord) {
	t.Helper()
	w, f, err := archival.OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := NewObservationSink(w)
	for _, rec := range recs {
		sink.Record(rec)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDoneFileCutsTornTailAndFinalGroup: a campaign killed mid-write
// leaves a torn row; resume cuts it, then cuts the final run group (which
// may be a partial batch), and the done set holds only the runs before it.
func TestReadDoneFileCutsTornTailAndFinalGroup(t *testing.T) {
	recs := []RunRecord{
		fakeRecord("dns-poison", "spam", 0),
		fakeRecord("dns-poison", "spam", 1),
		fakeRecord("dns-poison", "spam", 2),
	}
	for _, name := range []string{"out.jsonl", "out.bin"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		writeArchiveFile(t, filepath.Join(dir, "want."+name), recs[0])
		want, err := os.ReadFile(filepath.Join(dir, "want."+name))
		if err != nil {
			t.Fatal(err)
		}
		writeArchiveFile(t, path, recs[:2]...)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Tear a third run's first row in half.
		var row bytes.Buffer
		w := archival.NewWriter(&row, archival.FormatForPath(name))
		w.WriteObservations(FlattenRecord(recs[2])[:1])
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rb := bytes.TrimPrefix(row.Bytes(), []byte(archival.Magic))
		torn := rb[:len(rb)/2]
		if err := os.WriteFile(path, append(full, torn...), 0o644); err != nil {
			t.Fatal(err)
		}
		var warned []string
		done, err := ReadDoneFile(path, func(msg string) { warned = append(warned, msg) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(warned) != 2 {
			t.Fatalf("%s: warnings %q, want a torn-row and a final-group cut", name, warned)
		}
		if want := map[DoneKey]bool{recs[0].Key(): true}; !reflect.DeepEqual(done, want) {
			t.Fatalf("%s: done = %v, want %v", name, done, want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("%s: resume left %d bytes, want the first run's %d", name, len(got), len(want))
		}
	}
}

func TestReadDoneFileCleanAndMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	done, err := ReadDoneFile(path, func(msg string) { t.Fatalf("missing file warned %q", msg) })
	if err != nil || len(done) != 0 {
		t.Fatalf("missing file: done=%v err=%v", done, err)
	}
	errRec := fakeRecord("open", "overt-dns", 1)
	errRec.Verdict, errRec.Correct, errRec.Error = "", false, "panic: boom"
	writeArchiveFile(t, path, fakeRecord("open", "overt-dns", 0), errRec, fakeRecord("open", "overt-tcp", 0))
	warned := 0
	done, err = ReadDoneFile(path, func(string) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	// The final group is cut even from a clean file, and the error record
	// is not done.
	if want := map[DoneKey]bool{fakeRecord("open", "overt-dns", 0).Key(): true}; !reflect.DeepEqual(done, want) || warned != 1 {
		t.Fatalf("done = %v (%d warnings), want %v and one warning", done, warned, want)
	}
}

func TestReadDoneFileRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	writeArchiveFile(t, path, fakeRecord("open", "overt-dns", 0), fakeRecord("open", "overt-dns", 1))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("not json at all\n"), full...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDoneFile(path, func(msg string) { t.Fatalf("warned %q for a hard error", msg) }); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if got, _ := os.ReadFile(path); len(got) != len(full)+len("not json at all\n") {
		t.Fatal("a damaged file was truncated")
	}
}

// syncWriter records flush visibility and Sync calls — a stand-in for
// *os.File in durability tests.
type syncWriter struct {
	buf   bytes.Buffer
	syncs int
}

func (w *syncWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *syncWriter) Sync() error                 { w.syncs++; return nil }

// TestJSONLSinkSyncEveryBoundsLoss: -sync-every N counts runs. After k·N
// untraced runs exactly k·N complete run groups of the JSONL archive are
// durable.
func TestJSONLSinkSyncEveryBoundsLoss(t *testing.T) { checkSyncEveryBoundsLoss(t, false) }

// TestTraceSinkSyncEvery: trace rows ride in their run's batch, so a traced
// run counts once toward -sync-every and its trace rows are durable with it.
func TestTraceSinkSyncEvery(t *testing.T) { checkSyncEveryBoundsLoss(t, true) }

// checkSyncEveryBoundsLoss: -sync-every N counts runs, not rows. After k·N
// runs exactly k·N complete run groups are durable, traced or not.
func checkSyncEveryBoundsLoss(t *testing.T, traced bool) {
	t.Helper()
	const every = 2
	w := &syncWriter{}
	sink := NewObservationSink(archival.NewJSONLWriter(w))
	sink.SyncEvery(every)
	reg := telemetry.NewRegistry()
	sink.Instrument(reg, "archive")
	write := func(i int) {
		if traced {
			sink.Trace(fakeTrace("open", "spam", i))
		}
		sink.Record(fakeRecord("open", "spam", i))
	}
	for i := 0; i < 5; i++ {
		write(i)
		// Without calling Flush, the runs up to the last multiple of
		// every must already be durable: visible AND synced.
		wantRuns := (i + 1) / every * every
		recs, err := readRecords(t, w.buf.Bytes(), archival.TailStrict)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != wantRuns || w.syncs != wantRuns/every {
			t.Fatalf("traced=%v after %d runs: %d durable runs, %d syncs; want %d, %d",
				traced, i+1, len(recs), w.syncs, wantRuns, wantRuns/every)
		}
	}
	if got := reg.Counter(telemetry.Labels("campaign_sink_sync_total", "sink", "archive")).Value(); got != 2 {
		t.Fatalf("traced=%v: campaign_sink_sync_total = %d, want 2", traced, got)
	}
	// Final Flush drains the straggler and syncs once more.
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(t, w.buf.Bytes(), archival.TailStrict)
	if err != nil || len(recs) != 5 {
		t.Fatalf("traced=%v: post-Flush records = %d (%v), want 5", traced, len(recs), err)
	}
	if w.syncs != 3 {
		t.Fatalf("traced=%v: syncs after Flush = %d, want 3", traced, w.syncs)
	}
	if got := reg.Counter(telemetry.Labels("campaign_sink_flush_total", "sink", "archive")).Value(); got != 3 {
		t.Fatalf("traced=%v: campaign_sink_flush_total = %d, want 3", traced, got)
	}
}

func TestObservationSinkSyncEveryDisabledBuffers(t *testing.T) {
	w := &syncWriter{}
	sink := NewObservationSink(archival.NewJSONLWriter(w))
	sink.Record(fakeRecord("open", "spam", 0))
	if w.buf.Len() != 0 {
		t.Fatal("record escaped the bufio layer without SyncEvery or Flush")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 0 {
		t.Fatalf("plain Flush synced %d times; sync is the SyncEvery contract", w.syncs)
	}
	if !strings.Contains(w.buf.String(), `"type":"verdict"`) {
		t.Fatalf("flushed archive lacks the verdict row:\n%s", w.buf.String())
	}
}
