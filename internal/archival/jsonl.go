package archival

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"safemeasure/internal/telemetry"
)

// scanBuf/scanMax size the line scanner every JSONL reader shares: lines up
// to scanMax bytes are accepted, matching what the sinks can write.
const (
	scanBuf = 64 * 1024
	scanMax = 1 << 20
)

// MarshalLine renders v as one JSONL line, newline included — the line
// encoding of the measured service's NDJSON stream and result cache.
func MarshalLine(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// syncer is the optional durability hook of a sink's underlying writer —
// *os.File satisfies it; in-memory buffers simply skip the sync step.
type syncer interface{ Sync() error }

// Sink is the shared record-stream writer: a mutex-guarded bufio writer
// with whole-batch writes, an every-N-batches flush-and-fsync durability
// policy, and optional flush/sync telemetry. Both observation writers embed
// it; they differ only in how a row becomes bytes.
//
// Batches are written whole under the lock, so a writer killed mid-stream
// leaves a valid prefix plus at most one partial trailing batch — the
// wreckage Repair and CutLastGroup remove.
type Sink struct {
	mu         sync.Mutex
	w          *bufio.Writer
	raw        io.Writer
	count      int
	err        error
	syncEvery  int
	sinceFlush int
	flushes    *telemetry.Counter
	syncs      *telemetry.Counter
}

// reset points the sink at w; the writers call it from their constructors.
func (s *Sink) reset(w io.Writer) {
	s.w, s.raw = bufio.NewWriter(w), w
}

// SetSyncEvery bounds how much a hard crash can lose: every n batches (one
// per campaign run) the sink flushes its bufio layer and, when the
// underlying writer is a file, syncs it to stable storage. n <= 0 restores
// the default (buffer until Flush).
func (s *Sink) SetSyncEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncEvery = n
}

// InstrumentSink publishes flush/sync activity to reg under the given
// metric names, labeled {sink=name}.
func (s *Sink) InstrumentSink(reg *telemetry.Registry, flushMetric, syncMetric, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes = reg.Counter(telemetry.Labels(flushMetric, "sink", name))
	s.syncs = reg.Counter(telemetry.Labels(syncMetric, "sink", name))
}

// writeBatch appends one pre-encoded batch of n records (framing included)
// with a single write under one lock acquisition. Encoding a whole run's
// rows before taking the lock keeps concurrent workers' serialization work
// parallel; only the copy into the bufio layer is serialized. The batch
// lands contiguously, so a writer killed mid-stream leaves at most the
// final batch torn. Count grows by n, but the batch counts once toward the
// SetSyncEvery policy: a campaign writes one batch per run, so the policy
// bounds loss in runs, not rows.
func (s *Sink) writeBatch(raw []byte, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(raw); err != nil {
		s.err = err
		return
	}
	s.count += n
	s.sinceFlush++
	if s.syncEvery > 0 && s.sinceFlush >= s.syncEvery {
		s.flushLocked(true)
	}
}

// fail retains an error produced outside the lock (batch encoding); the
// first error wins, exactly like a write error.
func (s *Sink) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// batchBufs pools the scratch buffers batch writers encode into before
// handing the Sink one contiguous writeBatch.
var batchBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBatchBuf returns an empty pooled buffer for staging one batch ahead of
// a writeBatch call; pair it with putBatchBuf once the batch is written.
func getBatchBuf() *bytes.Buffer {
	b := batchBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBatchBuf returns a staging buffer to the pool.
func putBatchBuf(b *bytes.Buffer) { batchBufs.Put(b) }

// flushLocked drains the bufio layer and, when sync is set, pushes the
// bytes to stable storage if the underlying writer can. The first error is
// retained, poisoning later writes exactly like a write error.
func (s *Sink) flushLocked(sync bool) error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return err
	}
	s.flushes.Inc()
	s.sinceFlush = 0
	if sync {
		if f, ok := s.raw.(syncer); ok {
			if err := f.Sync(); err != nil {
				s.err = err
				return err
			}
			s.syncs.Inc()
		}
	}
	return nil
}

// Count returns how many records were written so far.
func (s *Sink) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Flush drains buffers (syncing to stable storage when SetSyncEvery is
// active) and returns the first error the sink hit.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(s.syncEvery > 0)
}

// TailPolicy says what a reader does with a record it cannot decode.
type TailPolicy int

const (
	// TailStrict rejects any undecodable record: the file is expected to be
	// complete and intact.
	TailStrict TailPolicy = iota
	// TailTolerate skips an undecodable FINAL record — the normal wreckage
	// of a writer killed mid-append, or of reading a file a live writer is
	// still appending to — reporting it through the warn callback.
	// Corruption anywhere before the last record still
	// aborts: that indicates real file damage, not an interrupted append.
	TailTolerate
)
