package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/spoof"
)

func TestE1AllMechanismsValidated(t *testing.T) {
	r, err := E1ReferenceSystems(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllCorrect {
		t.Fatalf("reference validation failed:\n%s", r.Render())
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.Render(), "keyword-rst") {
		t.Fatal("render missing mechanisms")
	}
}

func TestE2ScanAccurateAndEvading(t *testing.T) {
	r, err := E2Scanning(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ScanCorrect {
		t.Fatalf("scan missed censorship:\n%s", r.Render())
	}
	if r.ScanRisk.Flagged {
		t.Fatalf("scan flagged the measurer:\n%s", r.Render())
	}
	if !r.OvertCorrect || !r.OvertRisk.Flagged {
		t.Fatalf("baseline shape wrong:\n%s", r.Render())
	}
	if r.ScanDiscarded == 0 {
		t.Fatal("MVR discarded no scan traffic")
	}
	if r.ScanRisk.Score >= r.OvertRisk.Score {
		t.Fatalf("scan score %.2f >= overt %.2f", r.ScanRisk.Score, r.OvertRisk.Score)
	}
}

func TestE3Figure2Shape(t *testing.T) {
	r, err := E3SpamCDF(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's shape: the overwhelming majority of measurements score in
	// the spam region.
	if r.FractionSpam < 0.95 {
		t.Fatalf("only %.2f of measurements classified as spam:\n%s", r.FractionSpam, r.Render())
	}
	if r.CDF.N() != 100 {
		t.Fatalf("n = %d", r.CDF.N())
	}
	// Ham contrast: ordinary mail stays below the threshold.
	if r.HamCDF.At(r.Threshold-1) < 0.99 {
		t.Fatalf("ham leaked into spam region:\n%s", r.Render())
	}
	if !r.TwitterPoisoned || !r.YoutubePoisoned {
		t.Fatalf("GFC validation failed:\n%s", r.Render())
	}
	if !r.Delivered {
		t.Fatal("spam delivery to uncensored domain failed")
	}
}

func TestE4DDoSSamples(t *testing.T) {
	r, err := E4DDoS(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CensoredOK || !r.OpenOK {
		t.Fatalf("verdicts wrong:\n%s", r.Render())
	}
	if r.CensoredRisk.Flagged || r.OpenRisk.Flagged {
		t.Fatalf("flood measurer flagged:\n%s", r.Render())
	}
	if r.DDoSDiscarded == 0 {
		t.Fatal("MVR discarded no flood traffic")
	}
}

func TestE5SyriaFraction(t *testing.T) {
	r, err := E5SyriaLogs(5, 21000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.WithinTolerance {
		t.Fatalf("fraction %.4f not near 0.0157", r.Report.UserDenialFraction)
	}
	if r.Report.UsersWithDenial <= r.AnalystBudget {
		t.Fatalf("implicated users %d not >> analyst budget", r.Report.UsersWithDenial)
	}
}

func TestE6CoverSweepShape(t *testing.T) {
	r, err := E6StatelessSpoof(6, spoof.PolicySlash24)
	if err != nil {
		t.Fatal(err)
	}
	// Every cover size still detects the poisoning.
	for _, row := range r.Rows {
		if !row.Correct {
			t.Fatalf("covers=%d verdict wrong:\n%s", row.Covers, r.Render())
		}
	}
	// With no cover the client is flagged; with enough cover it is not.
	if !r.Rows[0].ClientFlagged {
		t.Fatalf("bare probe unflagged:\n%s", r.Render())
	}
	last := r.Rows[len(r.Rows)-1]
	if last.ClientFlagged {
		t.Fatalf("16 covers still flagged:\n%s", r.Render())
	}
	if r.CrossoverCovers <= 0 {
		t.Fatalf("no crossover found:\n%s", r.Render())
	}
	// Implicated users grow with cover size.
	if last.ImplicatedUsers <= r.Rows[0].ImplicatedUsers {
		t.Fatalf("attribution confusion absent:\n%s", r.Render())
	}
}

func TestE6StrictPolicyNeverEvades(t *testing.T) {
	r, err := E6StatelessSpoof(7, spoof.PolicyStrict)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !row.ClientFlagged {
			t.Fatalf("strict SAV but unflagged at covers=%d:\n%s", row.Covers, r.Render())
		}
	}
}

func TestE7StatefulShape(t *testing.T) {
	r, err := E7StatefulSpoof(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// TTL-limited rows (manual and AutoTTL-calibrated): correct verdicts,
	// replies seen at the tap, nothing reaches the cover hosts, measurer
	// unflagged.
	for _, row := range []E7Row{r.Rows[0], r.Rows[1], r.Rows[3]} {
		if !row.Correct {
			t.Fatalf("%s verdict wrong:\n%s", row.Case, r.Render())
		}
		if !row.TapSawReplies {
			t.Fatalf("%s: tap saw no replies:\n%s", row.Case, r.Render())
		}
		if row.CoverReceived != 0 {
			t.Fatalf("%s: %d packets leaked to covers:\n%s", row.Case, row.CoverReceived, r.Render())
		}
		if row.ClientFlagged {
			t.Fatalf("%s: measurer flagged:\n%s", row.Case, r.Render())
		}
	}
	// The ablation must fail: full-TTL replies reach covers and corrupt
	// the verdict.
	abl := r.Rows[2]
	if abl.Correct {
		t.Fatalf("ablation unexpectedly correct:\n%s", r.Render())
	}
	if abl.CoverReceived == 0 {
		t.Fatalf("ablation: no packets reached covers:\n%s", r.Render())
	}
}

func TestE8BeverlyFractions(t *testing.T) {
	r, err := E8SpoofFeasibility(9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.FracSpoof24 < 0.75 || r.FracSpoof24 > 0.79 {
		t.Fatalf("/24 fraction %.3f", r.FracSpoof24)
	}
	if r.FracSpoof16 < 0.10 || r.FracSpoof16 > 0.12 {
		t.Fatalf("/16 fraction %.3f", r.FracSpoof16)
	}
	if r.CoverSlash16 != 65536 {
		t.Fatalf("/16 cover set %d", r.CoverSlash16)
	}
}

func TestE9MVRModel(t *testing.T) {
	r, err := E9MVR(10, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.RetentionFrac > 0.076 {
		t.Fatalf("retention %.4f over budget", r.RetentionFrac)
	}
	if r.DiscardFraction <= 0 {
		t.Fatalf("nothing discarded:\n%s", r.Render())
	}
	if r.ContentAfter3d != 0 {
		t.Fatalf("content survived past retention: %d", r.ContentAfter3d)
	}
	if r.MetadataAfter30d != 0 {
		t.Fatalf("metadata survived past retention: %d", r.MetadataAfter30d)
	}
	if r.ContentNow == 0 || r.MetadataNow == 0 {
		t.Fatalf("stores empty during run:\n%s", r.Render())
	}
}

func TestE10EthicsLoad(t *testing.T) {
	r, err := E10EthicsLoad(11)
	if err != nil {
		t.Fatal(err)
	}
	if r.QueriesPerSlash16 != 65536 {
		t.Fatalf("queries per /16 = %d", r.QueriesPerSlash16)
	}
	if r.MeasurementAlerts < r.BaselineAlerts {
		t.Fatalf("alerts decreased with measurement: %d < %d", r.MeasurementAlerts, r.BaselineAlerts)
	}
	// Far below the open-resolver footprint.
	if r.QueriesPerSlash16*100 > r.OpenResolverBaseline {
		t.Fatal("load comparison broken")
	}
}

// headlineSeed1 runs the headline matrix at seed 1 once; the claim test
// and the EXPERIMENTS.md drift test share its 672 runs.
var headlineSeed1 = sync.OnceValues(func() (*Headline, error) { return E11Headline(1) })

func TestE11MatrixShape(t *testing.T) {
	h, err := headlineSeed1()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 21*E11Trials {
		t.Fatalf("runs = %d, want %d", len(h.Records), 21*E11Trials)
	}
	// Each claim pinned exactly. The one exception is real: blackhole/
	// overt-tcp trial 29 goes unflagged because population traffic to the
	// same blackholed host gives the overt probe cover (EXPERIMENTS.md E11).
	want := []struct{ k, n int }{{672, 672}, {0, 448}, {127, 128}, {0, 96}}
	for i, c := range h.Claims {
		if c.K != want[i].k || c.N != want[i].n {
			t.Errorf("%s, want %d/%d", c, want[i].k, want[i].n)
		}
	}
	if t.Failed() {
		t.Logf("\n%s", h.Render())
	}
}

// TestExperimentsMDE11Block fails when EXPERIMENTS.md's measured E11 block
// drifts from what labbench prints for E11 at seed 1.
func TestExperimentsMDE11Block(t *testing.T) {
	h, err := headlineSeed1()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- begin E11 -->\n", "<!-- end E11 -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no %q ... %q block", strings.TrimSpace(begin), end)
	}
	if want := "```\n" + h.Render() + "```\n"; got != want {
		t.Fatalf("EXPERIMENTS.md E11 block drifted; want:\n%s%s%s", begin, want, end)
	}
}

func TestRendersNonEmpty(t *testing.T) {
	// Smoke-test every Render path at small scale.
	e1, _ := E1ReferenceSystems(20)
	e2, _ := E2Scanning(20, 50)
	e3, _ := E3SpamCDF(21, 20)
	e4, _ := E4DDoS(21, 20)
	e5, _ := E5SyriaLogs(22, 2000)
	e6, _ := E6StatelessSpoof(22, spoof.PolicySlash24)
	e7, _ := E7StatefulSpoof(23)
	e8, _ := E8SpoofFeasibility(23, 5000)
	e9, _ := E9MVR(24, 5*time.Second)
	e10, _ := E10EthicsLoad(24)
	e12, _ := E12Ablations(25)
	for name, s := range map[string]string{
		"e1": e1.Render(), "e2": e2.Render(), "e3": e3.Render(), "e4": e4.Render(),
		"e5": e5.Render(), "e6": e6.Render(), "e7": e7.Render(), "e8": e8.Render(),
		"e9": e9.Render(), "e10": e10.Render(), "e12": e12.Render(),
	} {
		if len(s) < 100 {
			t.Errorf("%s render too short:\n%s", name, s)
		}
	}
	_ = core.VerdictAccessible
}

func TestE12Ablations(t *testing.T) {
	r, err := E12Ablations(13)
	if err != nil {
		t.Fatal(err)
	}
	// A: with discard on, none of the mimicry techniques is flagged.
	for _, row := range r.DiscardOn {
		if !row.Correct {
			t.Fatalf("%s verdict wrong with discard on:\n%s", row.Technique, r.Render())
		}
		if row.Flagged {
			t.Fatalf("%s flagged with discard on:\n%s", row.Technique, r.Render())
		}
	}
	// With discard off, scanning and flooding lose their cover (higher
	// scores; at least one flagged), while spam stays spam-class.
	flaggedOff := 0
	for i, row := range r.DiscardOff {
		if row.Score < r.DiscardOn[i].Score {
			t.Fatalf("%s score dropped with discard off:\n%s", row.Technique, r.Render())
		}
		if row.Flagged {
			flaggedOff++
		}
	}
	if flaggedOff == 0 {
		t.Fatalf("no technique flagged with discard off:\n%s", r.Render())
	}
	// B and C shapes.
	if !r.FragCaughtWithReassembly || !r.FragMissedWithoutReassembly {
		t.Fatalf("fragmentation ablation:\n%s", r.Render())
	}
	if !r.NoResidualClean || !r.ResidualContaminates {
		t.Fatalf("residual ablation:\n%s", r.Render())
	}
}
