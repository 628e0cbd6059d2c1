package campaign

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"safemeasure/internal/archival"
	"safemeasure/internal/telemetry"
)

// archiveRunID derives the archival parent-run ID from a record's cell
// identity — the same coordinates as CellKey, so two runs with equal cell
// keys flatten to rows with equal run IDs.
func archiveRunID(technique, scenario, impairment, behavior string, trial int, seed int64) uint64 {
	return archival.RunID(technique, scenario, impairment, behavior, trial, seed)
}

// obsBase stamps the shared identity columns of one run's rows.
func obsBase(technique, scenario, impairment, behavior string, trial int, seed int64) archival.Observation {
	return archival.Observation{
		Run:        archiveRunID(technique, scenario, impairment, behavior, trial, seed),
		Technique:  technique,
		Scenario:   scenario,
		Impairment: impairment,
		Behavior:   behavior,
		Trial:      trial,
		Seed:       seed,
	}
}

// FlattenRecord decomposes one run record into flat archival observations —
// one self-describing row per sub-measurement, every row carrying the run's
// full cell identity and a content-derived unique ID. Zero-valued
// sub-measurements emit no row (an absent row reconstructs as the zero
// value), so error records flatten to just their identity and error rows.
// The inverse is UnflattenRecord; the round trip is exact.
func FlattenRecord(rec RunRecord) []archival.Observation {
	base := obsBase(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
	obs := make([]archival.Observation, 0, 8+len(rec.CoverAddresses)+len(rec.Evidence))
	add := func(o archival.Observation) {
		o.SetID()
		obs = append(obs, o)
	}
	row := func(typ string) archival.Observation {
		o := base
		o.Type = typ
		return o
	}
	if rec.Verdict != "" || rec.Mechanism != "" || rec.Target != "" ||
		rec.ElapsedMS != 0 || rec.Correct || rec.Confidence != 0 {
		o := row(archival.TypeVerdict)
		o.Name = rec.Verdict
		o.Detail = rec.Mechanism
		o.Dst = rec.Target
		o.Value = rec.ElapsedMS
		o.Flag = rec.Correct
		o.Confidence = rec.Confidence
		add(o)
	}
	if rec.GroundTruth {
		o := row(archival.TypeTruth)
		o.Flag = true
		add(o)
	}
	if rec.Stealth {
		o := row(archival.TypeStealth)
		o.Flag = true
		add(o)
	}
	if rec.Attempts != 0 {
		o := row(archival.TypeAttempt)
		o.Count = int64(rec.Attempts)
		add(o)
	}
	if rec.Probes != 0 {
		o := row(archival.TypeProbe)
		o.Count = int64(rec.Probes)
		add(o)
	}
	if rec.Cover != 0 {
		o := row(archival.TypeCover)
		o.Count = int64(rec.Cover)
		add(o)
	}
	for i, addr := range rec.CoverAddresses {
		o := row(archival.TypeCoverAddr)
		o.Seq = i
		o.Name = addr
		add(o)
	}
	for i, ev := range rec.Evidence {
		o := row(archival.TypeEvidence)
		o.Seq = i
		o.Detail = ev
		add(o)
	}
	if rec.Score != 0 || rec.Alerts != 0 || rec.Flagged {
		o := row(archival.TypeRisk)
		o.Value = rec.Score
		o.Count = int64(rec.Alerts)
		o.Flag = rec.Flagged
		add(o)
	}
	if rec.Entropy != 0 || rec.Implicated != 0 || rec.Retained {
		o := row(archival.TypeAttribution)
		o.Value = rec.Entropy
		o.Count = int64(rec.Implicated)
		o.Flag = rec.Retained
		add(o)
	}
	if rec.Error != "" {
		o := row(archival.TypeError)
		o.Detail = rec.Error
		add(o)
	}
	return obs
}

// ObservationSpec reconstructs the run spec identity an observation row
// carries — every row repeats its run's full cell identity, so any single
// row is enough. The returned spec has no plan Index; its CellKey (and
// therefore its derived run ID) matches the row's Run column. This is the
// shared inverse the measured service's journal replay and archive warm
// start both lean on instead of re-deriving identities ad hoc.
func ObservationSpec(o archival.Observation) RunSpec {
	return RunSpec{
		Technique:  o.Technique,
		Scenario:   o.Scenario,
		Impairment: o.Impairment,
		Behavior:   o.Behavior,
		Trial:      o.Trial,
		Seed:       o.Seed,
	}
}

// FlattenTrace decomposes one run's packet-path trace into observation rows
// (one per event, ordered by Seq), sharing the run ID of the record rows so
// traces join records by cell identity.
func FlattenTrace(rt RunTrace) []archival.Observation {
	base := obsBase(rt.Technique, rt.Scenario, rt.Impairment, rt.Behavior, rt.Trial, rt.Seed)
	obs := make([]archival.Observation, 0, len(rt.Events))
	for i, ev := range rt.Events {
		o := base
		o.Type = archival.TypeTrace
		o.Seq = i
		o.T = ev.T
		o.Name = ev.Kind
		o.Src = ev.Src
		o.Dst = ev.Dst
		o.Detail = ev.Detail
		o.SetID()
		obs = append(obs, o)
	}
	return obs
}

// UnflattenRecord folds one run's observation rows (any order, trace rows
// ignored) back into the run record FlattenRecord decomposed. All rows must
// share one run identity; a row from another run is an error.
func UnflattenRecord(obs []archival.Observation) (RunRecord, error) {
	if len(obs) == 0 {
		return RunRecord{}, fmt.Errorf("campaign: unflatten: no observations")
	}
	var rec RunRecord
	first := obs[0]
	rec.Technique = first.Technique
	rec.Scenario = first.Scenario
	rec.Impairment = first.Impairment
	rec.Behavior = first.Behavior
	rec.Trial = first.Trial
	rec.Seed = first.Seed
	coverAddrs := map[int]string{}
	evidence := map[int]string{}
	for _, o := range obs {
		if o.Run != first.Run {
			return RunRecord{}, fmt.Errorf("campaign: unflatten: rows from different runs (%d vs %d)",
				o.Run, first.Run)
		}
		switch o.Type {
		case archival.TypeVerdict:
			rec.Verdict = o.Name
			rec.Mechanism = o.Detail
			rec.Target = o.Dst
			rec.ElapsedMS = o.Value
			rec.Correct = o.Flag
			rec.Confidence = o.Confidence
		case archival.TypeTruth:
			rec.GroundTruth = o.Flag
		case archival.TypeStealth:
			rec.Stealth = o.Flag
		case archival.TypeAttempt:
			rec.Attempts = int(o.Count)
		case archival.TypeProbe:
			rec.Probes = int(o.Count)
		case archival.TypeCover:
			rec.Cover = int(o.Count)
		case archival.TypeCoverAddr:
			coverAddrs[o.Seq] = o.Name
		case archival.TypeEvidence:
			evidence[o.Seq] = o.Detail
		case archival.TypeRisk:
			rec.Score = o.Value
			rec.Alerts = int(o.Count)
			rec.Flagged = o.Flag
		case archival.TypeAttribution:
			rec.Entropy = o.Value
			rec.Implicated = int(o.Count)
			rec.Retained = o.Flag
		case archival.TypeError:
			rec.Error = o.Detail
		case archival.TypeTrace, archival.TypePacket:
			// Trace and packet rows ride alongside record rows in archives;
			// they reconstruct through their own paths, not the record.
		default:
			return RunRecord{}, fmt.Errorf("campaign: unflatten: unknown observation type %q", o.Type)
		}
	}
	rec.CoverAddresses = seqSlice(coverAddrs)
	rec.Evidence = seqSlice(evidence)
	return rec, nil
}

// seqSlice orders Seq-keyed strings back into a slice (nil when empty).
func seqSlice(m map[int]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// ObservationSink adapts an archival writer to the campaign callbacks: each
// completed run is flattened into observation rows and written as one
// batch, so archives stay run-contiguous — the property ReadRecords and
// resume group by. When tracing is on, Trace stages a run's trace rows and
// Record writes them in the same batch as the run's record rows, so no
// other worker's batch can land between them. Record and Trace are safe to
// call from multiple workers.
type ObservationSink struct {
	w       archival.Writer
	tracing atomic.Bool
	mu      sync.Mutex
	staged  map[uint64][]archival.Observation // trace rows by run ID, awaiting Record
}

// NewObservationSink wraps an archival writer.
func NewObservationSink(w archival.Writer) *ObservationSink {
	return &ObservationSink{w: w}
}

// Record flattens and archives one run record (an Options.OnRecord hook),
// together with the trace rows Trace staged for the same run. The pool
// calls OnTrace only for claimed runs, on the worker that then delivers the
// run's record, so the stage holds at most one entry per worker; with
// tracing off Record takes no lock of its own.
func (s *ObservationSink) Record(rec RunRecord) {
	rows := FlattenRecord(rec)
	if s.tracing.Load() {
		run := archiveRunID(rec.Technique, rec.Scenario, rec.Impairment, rec.Behavior, rec.Trial, rec.Seed)
		s.mu.Lock()
		trace := s.staged[run]
		delete(s.staged, run)
		s.mu.Unlock()
		if len(trace) > 0 {
			rows = append(trace, rows...)
		}
	}
	s.w.WriteObservations(rows)
}

// Trace flattens one run's trace and stages it for that run's Record (an
// Options.OnTrace hook).
func (s *ObservationSink) Trace(rt RunTrace) {
	rows := FlattenTrace(rt)
	if len(rows) == 0 {
		return
	}
	s.mu.Lock()
	if s.staged == nil {
		s.staged = make(map[uint64][]archival.Observation)
	}
	s.staged[rows[0].Run] = rows
	s.mu.Unlock()
	s.tracing.Store(true)
}

// ReadRecords streams the run records an archive holds into fn — the one
// reader of records from rows. Rows are grouped into the batches
// archival.ContinuesBatch recognizes (each run's rows are one batch);
// groups of only trace or packet rows are not records and are skipped. A
// resumed campaign leaves a run's error record in the file next to the
// error-free record that superseded it, so error records are held back, one
// per run ID: an error-free record of the same run drops the held one, and
// those still held are emitted, in first-seen order, at the end of the
// stream. Every other record reaches fn in file order. A non-nil error from
// fn stops the read and is returned.
func ReadRecords(rd *archival.Reader, fn func(RunRecord) error) error {
	var group []archival.Observation
	hasRecordRows := false
	held := map[uint64]RunRecord{}
	var heldOrder []uint64
	emit := func() error {
		defer func() { group, hasRecordRows = group[:0], false }()
		if !hasRecordRows {
			return nil
		}
		rec, err := UnflattenRecord(group)
		if err != nil {
			return err
		}
		run := group[0].Run
		if rec.Error == "" {
			delete(held, run)
			return fn(rec)
		}
		if _, ok := held[run]; !ok {
			held[run] = rec
			heldOrder = append(heldOrder, run)
		}
		return nil
	}
	for {
		o, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(group) > 0 && !archival.ContinuesBatch(&group[len(group)-1], &o) {
			if err := emit(); err != nil {
				return err
			}
		}
		group = append(group, o)
		if o.Type != archival.TypeTrace && o.Type != archival.TypePacket {
			hasRecordRows = true
		}
	}
	if err := emit(); err != nil {
		return err
	}
	for _, run := range heldOrder {
		rec, ok := held[run]
		if !ok {
			continue
		}
		delete(held, run)
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Count reports how many observation rows were written.
func (s *ObservationSink) Count() int { return s.w.Count() }

// Flush drains the underlying writer.
func (s *ObservationSink) Flush() error { return s.w.Flush() }

// SyncEvery forwards the durability knob to the underlying writer.
func (s *ObservationSink) SyncEvery(n int) { s.w.SetSyncEvery(n) }

// Instrument publishes the underlying sink's flush/sync activity when the
// writer supports it (both archival writers do).
func (s *ObservationSink) Instrument(reg *telemetry.Registry, name string) {
	type instrumenter interface {
		InstrumentSink(reg *telemetry.Registry, flushMetric, syncMetric, name string)
	}
	if in, ok := s.w.(instrumenter); ok {
		in.InstrumentSink(reg, "campaign_sink_flush_total", "campaign_sink_sync_total", name)
	}
}
