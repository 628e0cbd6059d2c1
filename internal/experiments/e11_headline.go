package experiments

import (
	"fmt"
	"strings"

	"safemeasure/internal/campaign"
)

// E11Trials is the number of seeded trials per cell of the headline matrix.
const E11Trials = 32

// Headline is E11: the campaign engine's default plan (every technique
// against every scenario it can measure, the uncensored control "open"
// included) at E11Trials trials per cell, with the paper's two-sided claim
// counted over every run.
type Headline struct {
	Records []campaign.RunRecord
	Claims  []Claim
}

// E11Headline runs the headline matrix through the campaign Pool with
// default options. Run seeds derive from seed, so the records are the same
// at any worker count.
func E11Headline(seed int64) (*Headline, error) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{Seed: seed, Trials: E11Trials})
	if err != nil {
		return nil, err
	}
	recs, err := campaign.Run(plan, campaign.Options{})
	if err != nil {
		return nil, err
	}
	return &Headline{Records: recs, Claims: CheckClaims(recs)}, nil
}

// Claim is one statement of the paper's thesis counted over a campaign's
// records: K of the N runs it covers have the property. It holds when
// K == N if WantAll is set, and when K == 0 otherwise.
type Claim struct {
	Text    string
	K, N    int
	WantAll bool
}

func (c Claim) String() string {
	want := "none"
	if c.WantAll {
		want = "all"
	}
	return fmt.Sprintf("claim: %-44s %d/%d (want %s)", c.Text, c.K, c.N, want)
}

// CheckClaims counts both halves of the thesis (§3.2) over recs: detect
// the blocking (every verdict matches its scenario's ground truth, the
// uncensored control included), and stay out of the MVR log (no stealth
// run is flagged, while overt runs are flagged on censored scenarios and
// not on uncensored ones). An error record counts as a wrong verdict and
// is left out of the flag claims, which it has no risk report for.
func CheckClaims(recs []campaign.RunRecord) []Claim {
	correct := Claim{Text: "verdict matches ground truth", WantAll: true}
	stealth := Claim{Text: "stealth runs flagged"}
	overtCensored := Claim{Text: "overt runs on censored scenarios flagged", WantAll: true}
	overtOpen := Claim{Text: "overt runs on open flagged"}
	count := func(c *Claim, yes bool) {
		c.N++
		if yes {
			c.K++
		}
	}
	for _, r := range recs {
		count(&correct, r.Correct)
		switch {
		case r.Error != "":
		case r.Stealth:
			count(&stealth, r.Flagged)
		case r.GroundTruth:
			count(&overtCensored, r.Flagged)
		default:
			count(&overtOpen, r.Flagged)
		}
	}
	return []Claim{correct, stealth, overtCensored, overtOpen}
}

// Render prints the campaign summary table followed by the claim lines.
func (h *Headline) Render() string {
	var b strings.Builder
	b.WriteString(campaign.Aggregate(h.Records).Render())
	b.WriteString("\n")
	for _, c := range h.Claims {
		b.WriteString(c.String() + "\n")
	}
	return b.String()
}
