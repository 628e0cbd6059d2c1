package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"safemeasure/internal/archival"
)

// goldenE11Digest is the sha256 of the sorted JSONL records of the plan
// TestGoldenE11Digest runs. It pins every output byte of the lab, the
// techniques and the verdict logic: a change meant to be output-neutral
// (a faster lab build, a new RNG implementation) must leave it untouched.
// Update it only with a change that means to alter campaign outputs, and
// say why.
const goldenE11Digest = "f19034fc4742b2613c4a3861f9a9855b2501e59f7d40db12f836080b4e74ffcf"

// TestGoldenE11Digest runs the 21 E11 cells under a pristine and a lossy
// uplink against a faithful and an intermittent censor, one trial each,
// and compares the digest of the canonical (sorted) JSONL output — of the
// returned records, and of the records read back through ReadRecords from
// the JSONL and the binary archive the run streamed, which pins the archive
// round trip to the same bytes.
func TestGoldenE11Digest(t *testing.T) {
	p, err := NewPlan(PlanConfig{
		Impairments: []string{"none", "lossy5"},
		Behaviors:   []string{"none", "intermittent"},
		Trials:      1,
		Seed:        20151116,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 21 * 2 * 2; len(p.Specs) != want {
		t.Fatalf("golden plan has %d specs, want %d", len(p.Specs), want)
	}
	var jsonl, bin bytes.Buffer
	sinks := []*ObservationSink{
		NewObservationSink(archival.NewJSONLWriter(&jsonl)),
		NewObservationSink(archival.NewBinaryWriter(&bin)),
	}
	recs, err := Run(p, Options{Workers: 2, OnRecord: func(rec RunRecord) {
		for _, s := range sinks {
			s.Record(rec)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(source string, recs []RunRecord) {
		t.Helper()
		sum := sha256.Sum256([]byte(sortedJSONL(t, recs)))
		if got := hex.EncodeToString(sum[:]); got != goldenE11Digest {
			t.Fatalf("golden E11 digest of %s = %s, want %s: campaign outputs changed",
				source, got, goldenE11Digest)
		}
	}
	check("returned records", recs)
	for i, buf := range []*bytes.Buffer{&jsonl, &bin} {
		if err := sinks[i].Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := readRecords(t, buf.Bytes(), archival.TailStrict)
		if err != nil {
			t.Fatal(err)
		}
		check([]string{"the JSONL archive", "the binary archive"}[i], back)
	}
}
