package archival

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeArchive(t *testing.T, path string, f Format, obs []Observation) {
	t.Helper()
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	w := NewWriter(file, f)
	w.WriteObservations(obs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func countObs(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f, TailStrict, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n++
	}
}

func TestRepairBothFormats(t *testing.T) {
	obs := []Observation{
		{Run: 1, Type: TypeVerdict, Technique: "spam", Scenario: "open", Seed: 1, Name: "censored"},
		{Run: 1, Type: TypeTruth, Technique: "spam", Scenario: "open", Seed: 1, Flag: true},
		{Run: 2, Type: TypeVerdict, Technique: "spam", Scenario: "open", Trial: 1, Seed: 2, Name: "accessible"},
	}
	for i := range obs {
		obs[i].SetID()
	}
	for _, f := range []Format{FormatJSONL, FormatBinary} {
		path := filepath.Join(t.TempDir(), "archive")
		writeArchive(t, path, f, obs)

		// Clean file: Repair is a no-op.
		if truncated, err := Repair(path); err != nil || truncated {
			t.Fatalf("%v clean: truncated=%v err=%v", f, truncated, err)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Tear the tail at several depths; Repair must restore a strict-
		// readable file holding the first two records.
		for _, cut := range []int{1, 3, 7} {
			if cut >= len(full) {
				continue
			}
			if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			truncated, err := Repair(path)
			if err != nil {
				t.Fatalf("%v cut %d: %v", f, cut, err)
			}
			if !truncated {
				t.Fatalf("%v cut %d: no truncation reported", f, cut)
			}
			if n := countObs(t, path); n != 2 {
				t.Fatalf("%v cut %d: %d records after repair, want 2", f, cut, n)
			}
		}
	}
}

func TestRepairMissingFileIsClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent")
	if truncated, err := Repair(path); err != nil || truncated {
		t.Fatalf("truncated=%v err=%v", truncated, err)
	}
	off, torn, err := CleanPrefix(path)
	if off != 0 || torn || err != nil {
		t.Fatalf("off=%d torn=%v err=%v", off, torn, err)
	}
}

func TestCleanPrefixRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archive.jsonl")
	if err := os.WriteFile(path, []byte("{\"run\":\"1\",\"type\":\"verdict\"}\n{bad\n{\"run\":\"2\",\"type\":\"verdict\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CleanPrefix(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestCleanPrefixAppendResumes(t *testing.T) {
	// The repaired offset must be a valid append point: write, tear, repair,
	// append, and the result reads back whole.
	o1 := Observation{Run: 5, Type: TypeVerdict, Technique: "spam", Scenario: "open", Seed: 3}
	o1.SetID()
	o2 := Observation{Run: 6, Type: TypeVerdict, Technique: "spam", Scenario: "open", Trial: 1, Seed: 4}
	o2.SetID()
	for _, f := range []Format{FormatJSONL, FormatBinary} {
		path := filepath.Join(t.TempDir(), "archive")
		writeArchive(t, path, f, []Observation{o1, o2})
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:len(full)-2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Repair(path); err != nil {
			t.Fatal(err)
		}
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var w Writer
		if f == FormatBinary {
			w = NewBinaryAppender(file)
		} else {
			w = NewJSONLWriter(file)
		}
		w.WriteObservations([]Observation{o2})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		file.Close()
		if n := countObs(t, path); n != 2 {
			t.Fatalf("%v: %d records after repair+append, want 2", f, n)
		}
		var buf bytes.Buffer
		bw := NewWriter(&buf, f)
		bw.WriteObservations([]Observation{o1, o2})
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%v: repaired+appended file differs from a clean write", f)
		}
	}
}

func TestCutLastGroupBothFormats(t *testing.T) {
	row := func(run uint64, typ string) Observation {
		o := Observation{Run: run, Type: typ, Technique: "spam", Scenario: "open", Seed: int64(run)}
		o.SetID()
		return o
	}
	first := []Observation{row(1, TypeVerdict), row(1, TypeError)}
	last := []Observation{row(2, TypeTrace), row(2, TypeVerdict), row(2, TypeRisk)}
	for _, name := range []string{"archive.jsonl", "archive.bin"} {
		path := filepath.Join(t.TempDir(), name)
		write := func(appendTo bool, batches ...[]Observation) {
			t.Helper()
			w, f, err := OpenFile(path, appendTo)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				w.WriteObservations(b)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		write(false, first)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		write(true, last)

		// A declining predicate sees the final group's first row and keeps it.
		cut, err := CutLastGroup(path, func(o Observation) bool {
			if o.Run != 2 || o.Type != TypeTrace {
				t.Fatalf("%s: predicate saw %+v, want the final group's first row", name, o)
			}
			return false
		})
		if err != nil || cut {
			t.Fatalf("%s: declined cut: cut=%v err=%v", name, cut, err)
		}
		if n := countObs(t, path); n != 5 {
			t.Fatalf("%s: %d rows after a declined cut, want 5", name, n)
		}
		if cut, err := CutLastGroup(path, nil); err != nil || !cut {
			t.Fatalf("%s: cut=%v err=%v", name, cut, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cutting the final group left %q, want %q", name, got, want)
		}

		// Cutting down to nothing leaves a valid append point: a binary
		// file keeps its header and the append writes no second one.
		if cut, err := CutLastGroup(path, nil); err != nil || !cut {
			t.Fatalf("%s: second cut=%v err=%v", name, cut, err)
		}
		if cut, err := CutLastGroup(path, nil); err != nil || cut {
			t.Fatalf("%s: cut of an empty archive: cut=%v err=%v", name, cut, err)
		}
		write(true, first)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("%s: append after cutting everything = %q, want %q", name, got, want)
		}
	}
	if cut, err := CutLastGroup(filepath.Join(t.TempDir(), "absent"), nil); err != nil || cut {
		t.Fatalf("missing file: cut=%v err=%v", cut, err)
	}
}
