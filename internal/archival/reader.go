package archival

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Format names an observation encoding.
type Format int

const (
	// FormatJSONL is the interchange form: one JSON object per line.
	FormatJSONL Format = iota
	// FormatBinary is the compact length-prefixed form behind Magic.
	FormatBinary
)

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "jsonl"
}

// FormatForPath picks the encoding a path conventionally carries: ".bin"
// (and ".smoa") mean binary, everything else JSONL.
func FormatForPath(path string) Format {
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".smoa") {
		return FormatBinary
	}
	return FormatJSONL
}

// Writer is the common surface of the two observation writers; both embed
// Sink, so SetSyncEvery/InstrumentSink/Count/Flush come along.
type Writer interface {
	// WriteObservations appends one run's rows atomically (contiguously).
	WriteObservations(obs []Observation)
	Count() int
	Flush() error
	SetSyncEvery(n int)
}

// JSONLWriter streams observations as JSONL through the shared Sink.
type JSONLWriter struct {
	Sink
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{}
	jw.reset(w)
	return jw
}

// WriteObservations implements Writer. A campaign emits one batch per run,
// so the rows are encoded into pooled scratch and handed to the Sink as a
// single contiguous write, removing the per-row allocations that otherwise
// dominate the archive path under concurrent workers.
func (jw *JSONLWriter) WriteObservations(obs []Observation) {
	b := getBatchBuf()
	enc := json.NewEncoder(b)
	for i := range obs {
		// Encoder.Encode emits json.Marshal's bytes plus '\n' — the same
		// framing as MarshalLine — without an intermediate allocation.
		if err := enc.Encode(&obs[i]); err != nil {
			jw.fail(err)
			putBatchBuf(b)
			return
		}
	}
	jw.writeBatch(b.Bytes(), len(obs))
	putBatchBuf(b)
}

// BinaryWriter streams observations in the binary encoding through the
// shared Sink. The magic header is written at construction (it reaches the
// underlying writer on the first flush).
type BinaryWriter struct {
	Sink
}

// NewBinaryWriter wraps w and stages the magic header.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := &BinaryWriter{}
	bw.reset(w)
	bw.writeMagic()
	return bw
}

// NewBinaryAppender wraps a writer positioned after an existing file's
// magic header (the -resume append path): no new header is written.
func NewBinaryAppender(w io.Writer) *BinaryWriter {
	bw := &BinaryWriter{}
	bw.reset(w)
	return bw
}

// writeMagic stages the file header without counting it as a record.
func (bw *BinaryWriter) writeMagic() {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	if _, err := bw.w.WriteString(Magic); err != nil && bw.err == nil {
		bw.err = err
	}
}

// rawBufs pools the byte slices the binary batch path appends into.
var rawBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteObservations implements Writer.
func (bw *BinaryWriter) WriteObservations(obs []Observation) {
	p := rawBufs.Get().(*[]byte)
	buf := (*p)[:0]
	for i := range obs {
		buf = AppendObservation(buf, &obs[i])
	}
	bw.writeBatch(buf, len(obs))
	*p = buf
	rawBufs.Put(p)
}

// NewWriter builds the writer for an explicit format choice.
func NewWriter(w io.Writer, f Format) Writer {
	if f == FormatBinary {
		return NewBinaryWriter(w)
	}
	return NewJSONLWriter(w)
}

// OpenFile opens an observation file for writing in the encoding its
// extension picks (FormatForPath). With appendTo the existing rows are kept
// and new batches land after them — repair the file first — and a missing
// or empty binary file still gets its magic header; otherwise the file is
// created or truncated. Close the returned file after flushing the writer.
func OpenFile(path string, appendTo bool) (Writer, *os.File, error) {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, nil, err
	}
	format := FormatForPath(path)
	if format == FormatBinary && appendTo {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if st.Size() > 0 {
			return NewBinaryAppender(f), f, nil
		}
	}
	return NewWriter(f, format), f, nil
}

// Reader streams observations from either encoding in bounded memory,
// sniffing the format from the first bytes (the binary magic is not valid
// JSONL, so the sniff is unambiguous). Under TailTolerate a torn trailing
// record — a writer killed mid-append, or a live file still being appended
// to by a running campaign — is skipped and counted rather than treated as
// an error; Skipped reports how many. Corruption before the last record
// still errors under either policy.
type Reader struct {
	format  Format
	tail    TailPolicy
	br      *bufio.Reader // binary path
	sc      *bufio.Scanner
	line    int
	done    bool
	skipped int
	warn    func(line int, err error)
}

// NewReader sniffs r and prepares to stream observations from it. warn,
// when non-nil, is told about tolerated torn tails (line is 0 for binary
// streams, which have no line numbers).
func NewReader(r io.Reader, tail TailPolicy, warn func(line int, err error)) (*Reader, error) {
	br := bufio.NewReaderSize(r, scanBuf)
	head, err := br.Peek(len(Magic))
	rd := &Reader{tail: tail, warn: warn}
	if err == nil && string(head) == Magic {
		rd.format = FormatBinary
		if _, err := br.Discard(len(Magic)); err != nil {
			return nil, err
		}
		rd.br = br
		return rd, nil
	}
	rd.format = FormatJSONL
	rd.sc = bufio.NewScanner(br)
	rd.sc.Buffer(make([]byte, 0, scanBuf), scanMax)
	return rd, nil
}

// Format reports the sniffed encoding.
func (r *Reader) Format() Format { return r.format }

// Skipped reports how many torn trailing records were tolerated so far.
func (r *Reader) Skipped() int { return r.skipped }

// Next returns the next observation, or io.EOF at a clean (or tolerated)
// end of stream. After any non-nil error, including io.EOF, the reader is
// exhausted.
func (r *Reader) Next() (Observation, error) {
	if r.done {
		return Observation{}, io.EOF
	}
	if r.format == FormatBinary {
		return r.nextBinary()
	}
	return r.nextJSONL()
}

// nextBinary pulls one length-prefixed record.
func (r *Reader) nextBinary() (Observation, error) {
	o, err := readBinary(r.br)
	switch {
	case err == nil:
		return o, nil
	case err == io.EOF:
		r.done = true
		return Observation{}, io.EOF
	case err == io.ErrUnexpectedEOF && r.tail == TailTolerate:
		r.skipped++
		if r.warn != nil {
			r.warn(0, fmt.Errorf("archival: torn trailing binary record skipped"))
		}
		r.done = true
		return Observation{}, io.EOF
	case err == io.ErrUnexpectedEOF:
		r.done = true
		return Observation{}, fmt.Errorf("archival: truncated binary record: %w", io.ErrUnexpectedEOF)
	default:
		r.done = true
		return Observation{}, err
	}
}

// nextJSONL pulls one line, skipping blanks. An undecodable line is
// tolerated only when nothing but blanks follows it (the torn-tail shape);
// anything after it means mid-file corruption, an error under any policy.
func (r *Reader) nextJSONL() (Observation, error) {
	for r.sc.Scan() {
		r.line++
		b := r.sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		var o Observation
		err := json.Unmarshal(b, &o)
		if err == nil {
			return o, nil
		}
		badLine := r.line
		r.done = true
		if r.tail == TailStrict {
			return Observation{}, fmt.Errorf("archival: jsonl line %d: %w", badLine, err)
		}
		for r.sc.Scan() {
			r.line++
			if len(bytes.TrimSpace(r.sc.Bytes())) != 0 {
				return Observation{}, fmt.Errorf("archival: jsonl line %d: %w", badLine, err)
			}
		}
		if scErr := r.sc.Err(); scErr != nil {
			return Observation{}, scErr
		}
		r.skipped++
		if r.warn != nil {
			r.warn(badLine, err)
		}
		return Observation{}, io.EOF
	}
	r.done = true
	if err := r.sc.Err(); err != nil {
		return Observation{}, err
	}
	return Observation{}, io.EOF
}
