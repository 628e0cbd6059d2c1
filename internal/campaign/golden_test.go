package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
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
// and compares the digest of the canonical (sorted) JSONL output.
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
	recs, err := Run(p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(sortedJSONL(t, recs)))
	if got := hex.EncodeToString(sum[:]); got != goldenE11Digest {
		t.Fatalf("golden E11 digest = %s, want %s: campaign outputs changed", got, goldenE11Digest)
	}
}
