package archival

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// CleanPrefix scans an observation file and returns the byte offset where
// its valid record stream ends — the length of the prefix an appender can
// safely build on. torn reports whether bytes past that offset exist (a
// trailing record a killed writer left half-written). Corruption before the
// final record is an error: that is file damage, not an interrupted append.
// A missing file is a zero-length clean prefix.
func CleanPrefix(path string) (offset int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, false, err
	}
	br := bufio.NewReaderSize(f, scanBuf)
	head, _ := br.Peek(len(Magic))
	if string(head) == Magic {
		offset, err = cleanBinaryPrefix(br)
	} else {
		endsNL := false
		if size > 0 {
			var last [1]byte
			if _, err := f.ReadAt(last[:], size-1); err != nil {
				return 0, false, err
			}
			endsNL = last[0] == '\n'
		}
		offset, err = cleanJSONLPrefix(br, endsNL)
	}
	if err != nil {
		return 0, false, fmt.Errorf("%s: %w", path, err)
	}
	return offset, offset < size, nil
}

// cleanBinaryPrefix walks frames, advancing the offset past each decodable
// record. A frame the stream ends inside is the torn tail; a frame that
// decodes to garbage is corruption.
func cleanBinaryPrefix(br *bufio.Reader) (int64, error) {
	if _, err := br.Discard(len(Magic)); err != nil {
		return 0, err
	}
	offset := int64(len(Magic))
	var scratch [binary.MaxVarintLen64]byte
	for {
		length, err := binary.ReadUvarint(br)
		switch err {
		case nil:
		case io.EOF:
			return offset, nil
		case io.ErrUnexpectedEOF:
			return offset, nil // torn inside the length prefix
		default:
			return 0, fmt.Errorf("%w: bad record length: %v", ErrBadBinary, err)
		}
		if length > MaxBinaryRecord {
			return 0, fmt.Errorf("%w: record length %d exceeds %d", ErrBadBinary, length, MaxBinaryRecord)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return offset, nil // torn inside the payload
		}
		if _, err := DecodeObservation(payload); err != nil {
			// An undecodable but complete frame only counts as a torn tail
			// if nothing follows it.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				return offset, nil
			}
			return 0, err
		}
		offset += int64(binary.PutUvarint(scratch[:], length)) + int64(length)
	}
}

// cleanJSONLPrefix advances past decodable lines; an undecodable final line
// is the torn tail, an undecodable earlier line is corruption. The newline
// is the framing: a final line without one is torn even when its bytes
// happen to be valid JSON (a truncated record can be), so endsNL — whether
// the file's last byte is '\n' — decides whether the last line counts.
func cleanJSONLPrefix(br *bufio.Reader, endsNL bool) (int64, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, scanBuf), scanMax)
	var offset, lastAdvance int64
	line, badLine := 0, 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if badLine != 0 {
			// Only blanks may follow a torn line; data after it means the
			// damage is not a trailing partial write.
			if len(bytes.TrimSpace(b)) != 0 {
				return 0, fmt.Errorf("archival: jsonl line %d: undecodable before end of file", badLine)
			}
			continue
		}
		if len(bytes.TrimSpace(b)) != 0 && !json.Valid(b) {
			badLine = line
			continue // the clean prefix ends before this line
		}
		lastAdvance = int64(len(b)) + 1
		offset += lastAdvance
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if badLine == 0 && !endsNL && lastAdvance > 0 {
		offset -= lastAdvance // unframed final line: torn, not clean
	}
	return offset, nil
}

// Repair truncates a torn trailing record off an observation file in place,
// returning whether anything was cut. The file is left ending exactly at
// its clean record prefix, so appending resumes on a record boundary.
func Repair(path string) (bool, error) {
	offset, torn, err := CleanPrefix(path)
	if err != nil {
		return false, err
	}
	if !torn {
		return false, nil
	}
	if err := os.Truncate(path, offset); err != nil {
		return false, err
	}
	return true, nil
}

// CutLastGroup truncates the file's final run group — the trailing rows
// ContinuesBatch joins into one batch — when cut approves the group's first
// row (nil cut always cuts), and reports whether it did. Writers append each
// run's rows as one batch, so once Repair has removed a torn row only that
// final group can be a partial batch, and a partial batch is
// indistinguishable from a whole one by content: a row prefix unflattens to
// a plausible record. Callers that cannot prove the batch whole drop it and
// re-run it. The group's byte length comes from re-encoding its rows; both
// encoders are deterministic, so the re-encoding matches what the writers
// wrote.
func CutLastGroup(path string, cut func(Observation) bool) (bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	rd, err := NewReader(f, TailStrict, nil)
	if err != nil {
		return false, err
	}
	var group []Observation
	for {
		o, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if len(group) > 0 && !ContinuesBatch(&group[len(group)-1], &o) {
			group = group[:0]
		}
		group = append(group, o)
	}
	if len(group) == 0 || (cut != nil && !cut(group[0])) {
		return false, nil
	}
	var groupLen int64
	var scratch []byte
	for i := range group {
		if rd.Format() == FormatBinary {
			scratch = AppendObservation(scratch[:0], &group[i])
		} else if scratch, err = MarshalLine(&group[i]); err != nil {
			return false, err
		}
		groupLen += int64(len(scratch))
	}
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	return true, os.Truncate(path, st.Size()-groupLen)
}
