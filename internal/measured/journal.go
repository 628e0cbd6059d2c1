package measured

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/telemetry"
)

// The write-ahead journal reuses the archival binary container wholesale:
// entries are length-prefixed Observation frames behind the standard magic
// header, with two service-private observation types. That buys the journal
// the archival package's torn-tail repair (CleanPrefix/Repair), its bounded-
// memory Reader, and its fuzz-tested codec for free — the replay path shares
// the exact truncation logic the archive uses instead of duplicating it.
const (
	// obsTypeAdmit records one admitted run: the full cell identity columns
	// plus Detail = the admitting client. Written (and fsynced, by default)
	// before the run may execute — the "write-ahead" in the journal.
	obsTypeAdmit = "wal-admit"
	// obsTypeDone marks a cell's result durably archived: written only
	// after the archive append for the record returned. A cell with an
	// admit but no done is replayed on restart.
	obsTypeDone = "wal-done"
)

// journalObs builds one journal frame. The identity columns always carry the
// canonical (CellKey) form — pristine impairment as "" — so the Run column
// equals the archive rows' run ID for the same cell.
func journalObs(typ, client string, spec campaign.RunSpec) archival.Observation {
	key := spec.CellKey()
	o := archival.Observation{
		Run: archival.RunID(key.Technique, key.Scenario, key.Impairment,
			key.Behavior, key.Trial, key.Seed),
		Type:       typ,
		Technique:  key.Technique,
		Scenario:   key.Scenario,
		Impairment: key.Impairment,
		Behavior:   key.Behavior,
		Trial:      key.Trial,
		Seed:       key.Seed,
		Detail:     client,
	}
	o.SetID()
	return o
}

// JournalEntry is one admitted-but-unfinished run recovered from the
// journal: the spec to re-execute and the client whose admission created it
// (fairness attribution on replay).
type JournalEntry struct {
	Client string
	Spec   campaign.RunSpec
	seq    int64 // journal order, for deterministic replay
}

// appendFile is the Store's crash-safe append primitive. Unlike
// archival.Sink it neither buffers nor latches its first error: every append
// is one direct write() on the file — so bytes a completed append reported
// survive kill -9, and same-process write ordering is a durable ordering —
// and a failed write marks the file dirty so the next append first truncates
// the possibly-torn tail back to the last known-good offset and retries.
// That truncate-then-retry is what lets a degraded sink heal in place.
type appendFile struct {
	path  string
	f     *os.File
	w     io.Writer // f, or a fault-injection wrapper around it (tests)
	off   int64     // clean length: every byte below came from a completed append
	dirty bool      // a failed write may have left partial bytes past off
	sync  bool      // fsync after every successful append
}

// openAppendFile opens (creating if needed) path for appending. The caller
// must have repaired the file first; the current size is taken as the clean
// offset.
func openAppendFile(path string, wrap func(io.Writer) io.Writer, sync bool) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	return &appendFile{path: path, f: f, w: w, off: st.Size(), sync: sync}, nil
}

// append writes b as one unit. committed reports whether the bytes are in
// the file (they are, even when err is a post-write fsync failure — the
// same-process invariants hold, only power-loss durability is degraded).
// A non-committed failure leaves the file dirty; the next append truncates
// back to the clean offset before writing, so a torn tail from a short
// write never survives into the stream.
func (a *appendFile) append(b []byte) (committed bool, err error) {
	if a.dirty {
		if err := a.f.Truncate(a.off); err != nil {
			return false, fmt.Errorf("%s: truncating torn tail: %w", a.path, err)
		}
		a.dirty = false
	}
	n, err := a.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Even a zero-byte report is untrusted: the wrapper may sit above
		// a writer that touched the file.
		a.dirty = true
		return false, fmt.Errorf("%s: %w", a.path, err)
	}
	a.off += int64(n)
	if a.sync {
		if err := a.f.Sync(); err != nil {
			return true, fmt.Errorf("%s: fsync: %w", a.path, err)
		}
	}
	return true, nil
}

// close fsyncs and closes the file.
func (a *appendFile) close() error {
	syncErr := a.f.Sync()
	if err := a.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// StoreConfig parameterizes OpenStore.
type StoreConfig struct {
	// Journal is the write-ahead journal path; "" disables journaling
	// (no replay, no done markers, no admit-time durability).
	Journal string
	// Archive is the observation archive path (.bin/.smoa for binary);
	// "" disables archiving (and with it cache warm start).
	Archive string
	// FsyncAdmits fsyncs the journal after every append, so admitted
	// requests survive power loss, not just process death. Completion
	// ordering does not depend on it: archive-before-done is a same-process
	// write ordering, durable under kill -9 regardless.
	FsyncAdmits bool
	// WrapJournal/WrapArchive wrap the sink writers — the chaos
	// fault-injection seam (tests only).
	WrapJournal func(io.Writer) io.Writer
	WrapArchive func(io.Writer) io.Writer
	// MaxStash bounds how many failed completion writes the store retains
	// in memory awaiting sink recovery; older entries are dropped first
	// (the journal replays them after a restart). 0 means 256.
	MaxStash int
	// Metrics receives the measured_storage_* series; nil disables.
	Metrics *telemetry.Registry
}

// journalStash is one done marker awaiting journal recovery.
type journalStash struct {
	marker []byte
	key    campaign.CellKey
}

// archiveStash is one completed record's archive batch awaiting archive
// recovery; done says a journal done marker must follow once it lands.
type archiveStash struct {
	batch []byte
	key   campaign.CellKey
	done  bool
}

// Store is the service's crash-durable state: the write-ahead request
// journal plus the observation archive, with per-sink fault tracking. Both
// sinks degrade instead of latching: a failed write trips the sink's fault
// flag (surfaced through Err, so /readyz goes 503 and admission rejects
// with reason "storage"), completed results queue in a bounded in-memory
// stash, and the next write-path call — an admission or a completion —
// probes the sink by doing; success drains the stash and heals the flag.
//
// Crash contract (kill -9 at any instant):
//
//   - an admit frame is journaled (and by default fsynced) before its run
//     may execute, so no run is ever lost without a trace;
//   - a record's archive batch is one write(), issued strictly before its
//     done marker's write(), so a done marker proves the full batch;
//   - restart repairs both files' torn tails, rewrites the journal to just
//     its pending admits (compaction, via tmp+rename so a crash inside
//     recovery loses nothing), truncates an unacknowledged tail group off
//     the archive, and exposes the pending admits for replay.
type Store struct {
	mu            sync.Mutex
	journal       *appendFile
	archive       *appendFile
	archivePath   string
	archiveFormat archival.Format

	pending map[campaign.CellKey]JournalEntry
	seq     int64

	jFailed, aFailed bool
	jErr, aErr       error
	jStash           []journalStash
	aStash           []archiveStash
	maxStash         int

	faultsJ  *telemetry.Counter
	faultsA  *telemetry.Counter
	retries  *telemetry.Counter
	degraded *telemetry.Gauge
}

// OpenStore opens (repairing and compacting as needed) the journal and
// archive and computes the pending set — the admitted runs a crash left
// unfinished, which the service replays via Pending.
func OpenStore(cfg StoreConfig) (*Store, error) {
	maxStash := cfg.MaxStash
	if maxStash <= 0 {
		maxStash = 256
	}
	st := &Store{
		pending:  make(map[campaign.CellKey]JournalEntry),
		maxStash: maxStash,
		faultsJ:  cfg.Metrics.Counter(telemetry.Labels("measured_storage_faults_total", "sink", "journal")),
		faultsA:  cfg.Metrics.Counter(telemetry.Labels("measured_storage_faults_total", "sink", "archive")),
		retries:  cfg.Metrics.Counter("measured_storage_retries_total"),
		degraded: cfg.Metrics.Gauge("measured_storage_degraded"),
	}
	if cfg.Journal != "" {
		if _, err := archival.Repair(cfg.Journal); err != nil {
			return nil, fmt.Errorf("measured: journal: %w", err)
		}
		if err := st.loadJournal(cfg.Journal); err != nil {
			return nil, fmt.Errorf("measured: journal: %w", err)
		}
		if err := st.compactJournal(cfg.Journal); err != nil {
			return nil, fmt.Errorf("measured: journal: %w", err)
		}
		jf, err := openAppendFile(cfg.Journal, cfg.WrapJournal, cfg.FsyncAdmits)
		if err != nil {
			return nil, fmt.Errorf("measured: journal: %w", err)
		}
		st.journal = jf
	}
	if cfg.Archive != "" {
		if _, err := archival.Repair(cfg.Archive); err != nil {
			st.closeFiles()
			return nil, fmt.Errorf("measured: archive: %w", err)
		}
		st.archivePath = cfg.Archive
		st.archiveFormat = archival.FormatForPath(cfg.Archive)
		if st.journal != nil {
			if err := st.truncateUndoneTail(); err != nil {
				st.closeFiles()
				return nil, fmt.Errorf("measured: archive: %w", err)
			}
		}
		af, err := openAppendFile(cfg.Archive, cfg.WrapArchive, false)
		if err != nil {
			st.closeFiles()
			return nil, fmt.Errorf("measured: archive: %w", err)
		}
		st.archive = af
		if st.archiveFormat == archival.FormatBinary && af.off == 0 {
			if _, err := af.append([]byte(archival.Magic)); err != nil {
				st.closeFiles()
				return nil, fmt.Errorf("measured: archive: %w", err)
			}
		}
	}
	return st, nil
}

// loadJournal streams the repaired journal and folds admits and done
// markers into the pending set.
func (st *Store) loadJournal(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := archival.NewReader(f, archival.TailTolerate, nil)
	if err != nil {
		return err
	}
	for {
		o, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		key := campaign.ObservationSpec(o).CellKey()
		switch o.Type {
		case obsTypeAdmit:
			if _, ok := st.pending[key]; !ok {
				st.seq++
				st.pending[key] = JournalEntry{Client: o.Detail,
					Spec: campaign.ObservationSpec(o), seq: st.seq}
			}
		case obsTypeDone:
			delete(st.pending, key)
		default:
			return fmt.Errorf("%s: unknown journal frame type %q", path, o.Type)
		}
	}
}

// compactJournal rewrites the journal as just its pending admits, via a tmp
// file and an atomic rename — a crash anywhere inside recovery leaves either
// the old journal or the compacted one, never less than the pending set.
func (st *Store) compactJournal(path string) error {
	buf := []byte(archival.Magic)
	for _, e := range st.pendingOrdered() {
		o := journalObs(obsTypeAdmit, e.Client, e.Spec)
		buf = archival.AppendObservation(buf, &o)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pendingOrdered snapshots the pending set in journal order.
func (st *Store) pendingOrdered() []JournalEntry {
	out := make([]JournalEntry, 0, len(st.pending))
	for _, e := range st.pending {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// truncateUndoneTail cuts the archive's final run group when its cell is
// still pending in the journal. A record's rows go down in one write(), so
// only the file's last group can be a partial batch — and a partial batch is
// indistinguishable from a complete one by content. The journal
// disambiguates: the done marker is written only after the full batch's
// write() returned, so a pending tail group may be torn and is dropped
// whole. Its admit stays pending, so the run re-executes and re-archives — a
// duplicate-free archive either way.
func (st *Store) truncateUndoneTail() error {
	_, err := archival.CutLastGroup(st.archivePath, func(o archival.Observation) bool {
		_, pending := st.pending[campaign.ObservationSpec(o).CellKey()]
		return pending
	})
	return err
}

// Pending returns the journal's admitted-but-unfinished runs in journal
// order — the replay set.
func (st *Store) Pending() []JournalEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pendingOrdered()
}

// Err reports the storage degradation state: nil while both sinks are
// healthy, an ErrStorage-wrapped error naming the failing sink(s) otherwise.
// Read-only — probing happens on the write paths, so a rejected client's
// retry is what heals a recovered disk.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.errLocked()
}

func (st *Store) errLocked() error {
	switch {
	case st.jFailed && st.aFailed:
		return fmt.Errorf("%w: journal: %v; archive: %v", ErrStorage, st.jErr, st.aErr)
	case st.jFailed:
		return fmt.Errorf("%w: journal: %v", ErrStorage, st.jErr)
	case st.aFailed:
		return fmt.Errorf("%w: archive: %v", ErrStorage, st.aErr)
	}
	return nil
}

// faultLocked transitions one sink to failed.
func (st *Store) faultLocked(journal bool, err error) {
	if journal {
		if !st.jFailed {
			st.faultsJ.Inc()
		}
		st.jFailed, st.jErr = true, err
	} else {
		if !st.aFailed {
			st.faultsA.Inc()
		}
		st.aFailed, st.aErr = true, err
	}
	st.degraded.Set(1)
}

// healLocked transitions one sink back to healthy.
func (st *Store) healLocked(journal bool) {
	if journal {
		st.jFailed, st.jErr = false, nil
	} else {
		st.aFailed, st.aErr = false, nil
	}
	if !st.jFailed && !st.aFailed {
		st.degraded.Set(0)
	}
}

// flushStashLocked retries the writes earlier faults stashed — the
// probe-by-doing that heals a recovered sink. Each drained stash entry
// completes exactly what the original write would have: an archive batch
// lands and then its done marker, a done marker lands and clears its
// pending admit.
func (st *Store) flushStashLocked() {
	if st.jFailed && st.journal != nil {
		for len(st.jStash) > 0 {
			e := st.jStash[0]
			committed, err := st.journal.append(e.marker)
			if committed {
				st.jStash = st.jStash[1:]
				delete(st.pending, e.key)
				st.retries.Inc()
			}
			if err != nil {
				st.jErr = err
				return
			}
		}
		st.healLocked(true)
	}
	if st.aFailed && st.archive != nil {
		for len(st.aStash) > 0 {
			e := st.aStash[0]
			committed, err := st.archive.append(e.batch)
			if committed {
				st.aStash = st.aStash[1:]
				st.retries.Inc()
				if e.done {
					st.doneLocked(e.key)
				}
			}
			if err != nil {
				st.aErr = err
				return
			}
		}
		st.healLocked(false)
	}
}

// JournalAdmit appends one admit frame per spec — a single write, fsynced
// under FsyncAdmits — before the service may schedule any of them. A
// degraded sink rejects here (after one stash-flush probe) WITHOUT writing,
// never journal-then-reject: an orphan admit would replay as a run nobody
// asked for. The caller treats any error as ErrStorage and rolls the
// admission back.
func (st *Store) JournalAdmit(client string, specs []campaign.RunSpec) error {
	if st == nil || len(specs) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.flushStashLocked()
	if err := st.errLocked(); err != nil && (st.aFailed || st.journal == nil) {
		// The journal append below is its own probe; a failing archive (or
		// a journal-less store with a failing archive) has nothing left to
		// probe this admission with.
		return err
	}
	if st.journal == nil {
		return nil
	}
	var buf []byte
	for _, spec := range specs {
		o := journalObs(obsTypeAdmit, client, spec)
		buf = archival.AppendObservation(buf, &o)
	}
	committed, err := st.journal.append(buf)
	if !committed {
		st.faultLocked(true, err)
		return st.errLocked()
	}
	for _, spec := range specs {
		st.seq++
		st.pending[spec.CellKey()] = JournalEntry{Client: client, Spec: spec, seq: st.seq}
	}
	if err != nil {
		// Committed but not durably synced: the admission stands, the
		// degradation is surfaced so the next request probes again.
		st.faultLocked(true, err)
		return nil
	}
	st.healLocked(true)
	return nil
}

// doneLocked appends the done marker for key, stashing it when the journal
// is failing. The pending admit clears only once the marker is in the file.
func (st *Store) doneLocked(key campaign.CellKey) {
	if st.journal == nil {
		delete(st.pending, key)
		return
	}
	o := journalObs(obsTypeDone, "", campaign.RunSpec{Technique: key.Technique,
		Scenario: key.Scenario, Impairment: key.Impairment, Behavior: key.Behavior,
		Trial: key.Trial, Seed: key.Seed})
	marker := archival.AppendObservation(nil, &o)
	if st.jFailed {
		st.stashJournalLocked(journalStash{marker: marker, key: key})
		return
	}
	committed, err := st.journal.append(marker)
	if committed {
		delete(st.pending, key)
	}
	if err != nil {
		st.faultLocked(true, err)
		if !committed {
			st.stashJournalLocked(journalStash{marker: marker, key: key})
		}
		return
	}
	st.healLocked(true)
}

// stashJournalLocked bounds the done-marker stash; dropped markers are
// reconciled from the archive on the next restart instead.
func (st *Store) stashJournalLocked(e journalStash) {
	if len(st.jStash) >= st.maxStash {
		st.jStash = st.jStash[1:]
	}
	st.jStash = append(st.jStash, e)
}

// Complete persists one finished run: its flattened observation batch to
// the archive (one write, so the batch is the crash-atomic unit), then —
// for error-free records — its done marker to the journal. Error records
// get no done marker: like the batch engine's resume semantics, a failed
// run keeps its pending admit and gets a fresh chance after a restart.
// Sink failures stash the work and degrade the store; they never panic and
// never block beyond the local file write.
func (st *Store) Complete(rec campaign.RunRecord) error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := rec.CellKey()
	wantDone := rec.Error == ""
	st.flushStashLocked()
	if st.archive != nil {
		batch := st.encodeBatch(rec)
		if st.aFailed {
			st.stashArchiveLocked(archiveStash{batch: batch, key: key, done: wantDone})
			return st.errLocked()
		}
		committed, err := st.archive.append(batch)
		if !committed {
			st.faultLocked(false, err)
			st.stashArchiveLocked(archiveStash{batch: batch, key: key, done: wantDone})
			return st.errLocked()
		}
		if err != nil {
			st.faultLocked(false, err)
		} else {
			st.healLocked(false)
		}
	}
	if wantDone {
		st.doneLocked(key)
	}
	return st.errLocked()
}

// stashArchiveLocked bounds the archive retry stash; dropped batches are
// re-executed and re-archived after the next restart (their admits are
// still pending).
func (st *Store) stashArchiveLocked(e archiveStash) {
	if len(st.aStash) >= st.maxStash {
		st.aStash = st.aStash[1:]
	}
	st.aStash = append(st.aStash, e)
}

// Reconcile marks a pending cell done because its result already sits in
// the archive — the crash hit after the archive write but before the done
// marker. Warm start calls it for every error-free record it loads.
func (st *Store) Reconcile(key campaign.CellKey) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.pending[key]; !ok {
		return
	}
	st.flushStashLocked()
	st.doneLocked(key)
}

// encodeBatch renders one record's observation rows in the archive format.
func (st *Store) encodeBatch(rec campaign.RunRecord) []byte {
	obs := campaign.FlattenRecord(rec)
	if st.archiveFormat == archival.FormatBinary {
		var buf []byte
		for i := range obs {
			buf = archival.AppendObservation(buf, &obs[i])
		}
		return buf
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range obs {
		// Unreachable error: Observation always marshals.
		_ = enc.Encode(&obs[i])
	}
	return b.Bytes()
}

// LoadArchive streams the archive's run records into fn through the shared
// campaign.ReadRecords reader, returning how many it loaded. Call before
// serving traffic: it reads the same file the store appends to.
func (st *Store) LoadArchive(fn func(campaign.RunRecord)) (int, error) {
	if st == nil || st.archivePath == "" {
		return 0, nil
	}
	f, err := os.Open(st.archivePath)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := archival.NewReader(f, archival.TailTolerate, nil)
	if err != nil {
		return 0, err
	}
	loaded := 0
	err = campaign.ReadRecords(rd, func(rec campaign.RunRecord) error {
		fn(rec)
		loaded++
		return nil
	})
	return loaded, err
}

// Close flushes any stashed writes, fsyncs, and closes both sinks. A
// non-nil error means durable state may be behind in-memory state (the
// journal replays the difference on the next start).
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.flushStashLocked()
	err := st.errLocked()
	if cerr := st.closeFiles(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// closeFiles closes whichever sinks are open.
func (st *Store) closeFiles() error {
	var first error
	if st.journal != nil {
		if err := st.journal.close(); err != nil {
			first = err
		}
		st.journal = nil
	}
	if st.archive != nil {
		if err := st.archive.close(); err != nil && first == nil {
			first = err
		}
		st.archive = nil
	}
	return first
}
