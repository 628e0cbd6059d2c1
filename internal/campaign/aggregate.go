package campaign

import (
	"fmt"
	"sort"
	"strings"

	"safemeasure/internal/stats"
)

// Cell aggregates every run of one technique against one scenario under one
// link impairment and one censor behavior. The impairment axis made the E11
// matrix three-dimensional; the behavior axis is its fourth dimension: the
// same (scenario, impairment, technique) cell appears once per adversarial
// censor preset swept.
type Cell struct {
	Scenario   string
	Impairment string // "" means the pristine link
	Behavior   string // "" means the faithful censor
	Technique  string
	Stealth    bool

	Runs         int // completed runs (errors excluded)
	Errors       int // failed runs
	Correct      int // verdict matched the scenario's ground truth
	Inconclusive int // tri-state middle: refused to call loss vs blocking
	Flagged      int // analyst flagged the measurer
	Alerted      int // runs where measurement traffic survived the MVR and tripped a rule
	Retained     int // MVR kept metadata for the measurer (stage-1 visibility)

	Score     stats.Summary // analyst suspicion
	Entropy   stats.Summary // attribution entropy (bits)
	Attempts  stats.Summary // probe attempts consumed per run (retry policy)
	ElapsedMS stats.Summary // virtual per-run duration
}

// Accuracy is the fraction of completed runs with a correct verdict.
func (c *Cell) Accuracy() float64 { return frac(c.Correct, c.Runs) }

// AccuracyCI is the Wilson 95% confidence interval on Accuracy — the
// verdict-confidence band a future adaptive planner can use to decide which
// cells still need trials and which are already resolved.
func (c *Cell) AccuracyCI() (lo, hi float64) { return stats.Wilson95(c.Correct, c.Runs) }

// InconclusiveRate is the fraction of completed runs the retry policy left
// unresolved rather than guessing.
func (c *Cell) InconclusiveRate() float64 { return frac(c.Inconclusive, c.Runs) }

// FlagRate is the fraction of completed runs where the measurer was flagged.
func (c *Cell) FlagRate() float64 { return frac(c.Flagged, c.Runs) }

// EvasionRate is the fraction of completed runs where nothing incriminating
// survived the MVR: zero alerts in the measurer's dossier. Alerts only fire
// on traffic the MVR retained past its wholesale-discard stage, so an empty
// dossier means the measurement evaded MVR-fed analysis — the paper's
// evasion criterion. (Raw metadata retention is near-universal: even a
// benign resolver lookup leaves a flow record, so it is tracked in Retained
// but is not the evasion signal.)
func (c *Cell) EvasionRate() float64 { return frac(c.Runs-c.Alerted, c.Runs) }

// KindTotals aggregates one technique family (overt or stealth).
type KindTotals struct {
	Runs, Errors, Correct, Flagged int
}

// Accuracy is the family's correct fraction.
func (k KindTotals) Accuracy() float64 { return frac(k.Correct, k.Runs) }

// FlagRate is the family's flagged fraction.
func (k KindTotals) FlagRate() float64 { return frac(k.Flagged, k.Runs) }

// ImpairmentTotals aggregates every run under one impairment preset — the
// marginal of the matrix along its new axis, answering "how much accuracy
// does a lossy link cost, and how much does the retry policy buy back".
type ImpairmentTotals struct {
	Impairment                                   string // "" means the pristine link
	Runs, Errors, Correct, Inconclusive, Alerted int
}

// Accuracy is the per-impairment correct fraction.
func (i ImpairmentTotals) Accuracy() float64 { return frac(i.Correct, i.Runs) }

// InconclusiveRate is the per-impairment unresolved fraction.
func (i ImpairmentTotals) InconclusiveRate() float64 { return frac(i.Inconclusive, i.Runs) }

// EvasionRate is the per-impairment evasion fraction (see Cell.EvasionRate).
func (i ImpairmentTotals) EvasionRate() float64 { return frac(i.Runs-i.Alerted, i.Runs) }

// BehaviorTotals aggregates every run under one censor-behavior preset —
// the marginal along the adversarial-censor axis, answering "how much does
// a misbehaving censor corrupt verdicts, and how much does corroboration
// buy back".
type BehaviorTotals struct {
	Behavior                                     string // "" means the faithful censor
	Runs, Errors, Correct, Inconclusive, Alerted int
}

// Accuracy is the per-behavior correct fraction.
func (b BehaviorTotals) Accuracy() float64 { return frac(b.Correct, b.Runs) }

// InconclusiveRate is the per-behavior unresolved fraction.
func (b BehaviorTotals) InconclusiveRate() float64 { return frac(b.Inconclusive, b.Runs) }

// EvasionRate is the per-behavior evasion fraction (see Cell.EvasionRate).
func (b BehaviorTotals) EvasionRate() float64 { return frac(b.Runs-b.Alerted, b.Runs) }

// Summary is a whole campaign reduced to its reportable statistics.
type Summary struct {
	Cells          []Cell             // sorted by (scenario, impairment, behavior, technique)
	Impairments    []ImpairmentTotals // sorted by name, pristine first
	Behaviors      []BehaviorTotals   // sorted by name, faithful first
	Overt, Stealth KindTotals
	Runs, Errors   int
}

// Aggregate folds run records into per-cell, per-impairment, and per-family
// statistics.
func Aggregate(recs []RunRecord) *Summary {
	cells := map[[4]string]*Cell{}
	impairs := map[string]*ImpairmentTotals{}
	behaviors := map[string]*BehaviorTotals{}
	sum := &Summary{}
	for _, r := range recs {
		key := [4]string{r.Scenario, r.Impairment, r.Behavior, r.Technique}
		c := cells[key]
		if c == nil {
			c = &Cell{Scenario: r.Scenario, Impairment: r.Impairment,
				Behavior: r.Behavior, Technique: r.Technique, Stealth: r.Stealth}
			cells[key] = c
		}
		im := impairs[r.Impairment]
		if im == nil {
			im = &ImpairmentTotals{Impairment: r.Impairment}
			impairs[r.Impairment] = im
		}
		bh := behaviors[r.Behavior]
		if bh == nil {
			bh = &BehaviorTotals{Behavior: r.Behavior}
			behaviors[r.Behavior] = bh
		}
		sum.Runs++
		if r.Error != "" {
			c.Errors++
			im.Errors++
			bh.Errors++
			sum.Errors++
			continue
		}
		kind := &sum.Overt
		if r.Stealth {
			kind = &sum.Stealth
		}
		c.Runs++
		im.Runs++
		bh.Runs++
		kind.Runs++
		if r.Correct {
			c.Correct++
			im.Correct++
			bh.Correct++
			kind.Correct++
		}
		if r.Verdict == "inconclusive" {
			c.Inconclusive++
			im.Inconclusive++
			bh.Inconclusive++
		}
		if r.Flagged {
			c.Flagged++
			kind.Flagged++
		}
		if r.Alerts > 0 {
			c.Alerted++
			im.Alerted++
			bh.Alerted++
		}
		if r.Retained {
			c.Retained++
		}
		c.Score.Add(r.Score)
		c.Entropy.Add(r.Entropy)
		c.Attempts.Add(float64(max(r.Attempts, 1)))
		c.ElapsedMS.Add(r.ElapsedMS)
	}
	for _, c := range cells {
		sum.Cells = append(sum.Cells, *c)
	}
	sort.Slice(sum.Cells, func(i, j int) bool {
		a, b := sum.Cells[i], sum.Cells[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Impairment != b.Impairment {
			return a.Impairment < b.Impairment
		}
		if a.Behavior != b.Behavior {
			return a.Behavior < b.Behavior
		}
		return a.Technique < b.Technique
	})
	for _, im := range impairs {
		sum.Impairments = append(sum.Impairments, *im)
	}
	sort.Slice(sum.Impairments, func(i, j int) bool {
		return sum.Impairments[i].Impairment < sum.Impairments[j].Impairment
	})
	for _, bh := range behaviors {
		sum.Behaviors = append(sum.Behaviors, *bh)
	}
	sort.Slice(sum.Behaviors, func(i, j int) bool {
		return sum.Behaviors[i].Behavior < sum.Behaviors[j].Behavior
	})
	return sum
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// impairLabel renders the pristine link's empty name readably.
func impairLabel(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// behaviorLabel renders the faithful censor's empty name readably.
func behaviorLabel(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// Render prints the campaign matrix and the overt-vs-stealth headline.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign summary — %d runs (%d errors)\n\n", s.Runs, s.Errors)
	t := stats.NewTable("scenario", "impair", "behav", "technique", "kind", "runs", "accuracy",
		"acc-95ci", "inconcl", "mvr-evasion", "flag-rate", "mean-score", "attempts", "virt-ms")
	for _, c := range s.Cells {
		kind := "overt"
		if c.Stealth {
			kind = "stealth"
		}
		runs := fmt.Sprintf("%d", c.Runs)
		if c.Errors > 0 {
			runs = fmt.Sprintf("%d(+%derr)", c.Runs, c.Errors)
		}
		lo, hi := c.AccuracyCI()
		t.AddRow(c.Scenario, impairLabel(c.Impairment), behaviorLabel(c.Behavior),
			c.Technique, kind, runs,
			c.Accuracy(), fmt.Sprintf("%.2f-%.2f", lo, hi),
			c.InconclusiveRate(), c.EvasionRate(), c.FlagRate(),
			c.Score.Mean(), c.Attempts.Mean(), c.ElapsedMS.Mean())
	}
	b.WriteString(t.String())
	if len(s.Impairments) > 1 {
		it := stats.NewTable("impairment", "runs", "accuracy", "inconcl", "mvr-evasion")
		for _, im := range s.Impairments {
			runs := fmt.Sprintf("%d", im.Runs)
			if im.Errors > 0 {
				runs = fmt.Sprintf("%d(+%derr)", im.Runs, im.Errors)
			}
			it.AddRow(impairLabel(im.Impairment), runs, im.Accuracy(),
				im.InconclusiveRate(), im.EvasionRate())
		}
		b.WriteString("\nper-impairment marginals:\n")
		b.WriteString(it.String())
	}
	if len(s.Behaviors) > 1 {
		bt := stats.NewTable("behavior", "runs", "accuracy", "inconcl", "mvr-evasion")
		for _, bh := range s.Behaviors {
			runs := fmt.Sprintf("%d", bh.Runs)
			if bh.Errors > 0 {
				runs = fmt.Sprintf("%d(+%derr)", bh.Runs, bh.Errors)
			}
			bt.AddRow(behaviorLabel(bh.Behavior), runs, bh.Accuracy(),
				bh.InconclusiveRate(), bh.EvasionRate())
		}
		b.WriteString("\nper-behavior marginals:\n")
		b.WriteString(bt.String())
	}
	fmt.Fprintf(&b, "\naccuracy:  overt %.2f vs stealth %.2f (must be comparable)\n",
		s.Overt.Accuracy(), s.Stealth.Accuracy())
	fmt.Fprintf(&b, "flag rate: overt %.2f vs stealth %.2f (stealth must be lower)\n",
		s.Overt.FlagRate(), s.Stealth.FlagRate())
	return b.String()
}
