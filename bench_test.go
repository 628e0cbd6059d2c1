// Package safemeasure's root benchmark harness: one benchmark per paper
// artifact (table/figure), each regenerating the experiment from
// internal/experiments and reporting its headline numbers as custom bench
// metrics. Run with:
//
//	go test -bench=. -benchmem
//
// The rendered tables themselves are printed by cmd/labbench.
package safemeasure

import (
	"fmt"
	"testing"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/experiments"
	"safemeasure/internal/spoof"
	"safemeasure/internal/telemetry"
)

func BenchmarkE1_ReferenceSystems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E1ReferenceSystems(int64(1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllCorrect {
			b.Fatalf("validation failed:\n%s", r.Render())
		}
	}
}

func BenchmarkE2_Scanning(b *testing.B) {
	var last *experiments.E2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E2Scanning(int64(1), 1000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(boolMetric(last.ScanCorrect), "scan-correct")
	b.ReportMetric(boolMetric(last.ScanRisk.Flagged), "scan-flagged")
	b.ReportMetric(boolMetric(last.OvertRisk.Flagged), "overt-flagged")
	b.ReportMetric(float64(last.ScanDiscarded), "scan-pkts-discarded")
}

func BenchmarkE3_SpamCDF(b *testing.B) {
	var last *experiments.E3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E3SpamCDF(int64(1), 100)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.FractionSpam, "fraction-spam")
	b.ReportMetric(last.CDF.Quantile(0.5), "median-score")
	b.ReportMetric(boolMetric(last.TwitterPoisoned && last.YoutubePoisoned), "gfc-validated")
}

func BenchmarkE4_DDoS(b *testing.B) {
	var last *experiments.E4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E4DDoS(int64(1), 40)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(boolMetric(last.CensoredOK && last.OpenOK), "verdicts-correct")
	b.ReportMetric(boolMetric(last.CensoredRisk.Flagged), "flagged")
	b.ReportMetric(float64(last.DDoSDiscarded), "flood-pkts-discarded")
}

func BenchmarkE5_SyriaLogs(b *testing.B) {
	var last *experiments.E5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E5SyriaLogs(int64(1), 21000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Report.UserDenialFraction, "user-denial-fraction")
	b.ReportMetric(float64(last.Report.UsersWithDenial), "implicated-users")
}

func BenchmarkE6_StatelessSpoof(b *testing.B) {
	var last *experiments.E6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E6StatelessSpoof(int64(1), spoof.PolicySlash24)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.CrossoverCovers), "covers-to-evade")
	b.ReportMetric(float64(last.Rows[len(last.Rows)-1].ImplicatedUsers), "implicated-at-16-covers")
}

func BenchmarkE7_StatefulSpoof(b *testing.B) {
	var last *experiments.E7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E7StatefulSpoof(int64(1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	ok := last.Rows[0].Correct && last.Rows[1].Correct && !last.Rows[2].Correct
	b.ReportMetric(boolMetric(ok), "shape-holds")
	b.ReportMetric(float64(last.Rows[2].CoverReceived), "ablation-leaked-pkts")
}

func BenchmarkE8_SpoofFeasibility(b *testing.B) {
	var last *experiments.E8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E8SpoofFeasibility(int64(1), 100000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.FracSpoof24, "frac-spoof-slash24")
	b.ReportMetric(last.FracSpoof16, "frac-spoof-slash16")
}

func BenchmarkE9_MVR(b *testing.B) {
	var last *experiments.E9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E9MVR(int64(1), 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.RetentionFrac, "retention-fraction")
	b.ReportMetric(last.DiscardFraction, "discard-fraction")
}

func BenchmarkE10_EthicsLoad(b *testing.B) {
	var last *experiments.E10Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E10EthicsLoad(int64(1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.QueriesPerSlash16), "queries-per-slash16")
	b.ReportMetric(float64(last.MeasurementAlerts-last.BaselineAlerts), "extra-alerts")
}

func BenchmarkE11_TechniqueMatrix(b *testing.B) {
	var last *experiments.Headline
	for i := 0; i < b.N; i++ {
		r, err := experiments.E11Headline(int64(1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for i, unit := range []string{"correct-frac", "stealth-flagged-frac",
		"overt-censored-flagged-frac", "overt-open-flagged-frac"} {
		c := last.Claims[i]
		b.ReportMetric(float64(c.K)/float64(c.N), unit)
	}
}

func BenchmarkE12_Ablations(b *testing.B) {
	var last *experiments.E12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E12Ablations(int64(1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	shape := last.FragCaughtWithReassembly && last.FragMissedWithoutReassembly &&
		last.ResidualContaminates && last.NoResidualClean
	b.ReportMetric(boolMetric(shape), "frag-and-residual-shape")
	flaggedOff := 0
	for _, row := range last.DiscardOff {
		if row.Flagged {
			flaggedOff++
		}
	}
	b.ReportMetric(float64(flaggedOff), "flagged-without-discard")
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// BenchmarkCampaign measures campaign throughput (runs/sec) at several
// worker-pool sizes over a fixed 21-run matrix. Throughput should scale
// with workers until the host's cores saturate; results stay identical at
// every width (see TestCampaignDeterministicAcrossWorkerCounts).
func BenchmarkCampaign(b *testing.B) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"keyword-rst", "dns-poison", "blackhole"},
		Trials:    2,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchCampaignWorkers(b, plan)
}

// BenchmarkCampaignScaling is the wide variant: every scenario, every
// impairment-free technique, more trials — a matrix large enough that the
// per-worker fixed costs (artifact lookup, sink batch) amortize and the
// workers=8/workers=1 ratio approximates the pool's real parallel speedup
// on multi-core hosts. scripts/verify.sh reads that ratio for its scaling
// gate.
func BenchmarkCampaignScaling(b *testing.B) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"open", "keyword-rst", "dns-poison", "blackhole", "port-block"},
		Trials:    4,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchCampaignWorkers(b, plan)
}

// benchCampaignWorkers runs plan at several pool widths, reporting runs/s
// from the benchmark's own timer so it agrees with ns/op. (An earlier
// version timed with time.Now inside the loop body, so runs/s silently
// included timer-stopped setup and disagreed with ns/op.)
func benchCampaignWorkers(b *testing.B, plan *campaign.Plan) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := campaign.Run(plan, campaign.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range recs {
					if rec.Error != "" {
						b.Fatalf("%s/%s: %s", rec.Technique, rec.Scenario, rec.Error)
					}
				}
				runs += len(recs)
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkTelemetryOverhead is the overhead guard for the telemetry
// subsystem: the same single-run campaign executed with telemetry disabled
// (nil registry — every hot-path handle is nil and costs one comparison)
// versus fully enabled (shared registry + per-run trace ring). Compare the
// two ns/op figures to bound the cost of leaving telemetry on.
func BenchmarkTelemetryOverhead(b *testing.B) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Techniques: []string{"spam"},
		Scenarios:  []string{"dns-poison"},
		Trials:     1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.Specs[0]

	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, _ := campaign.ExecuteInstrumented(spec, campaign.ExecConfig{})
			if rec.Error != "" {
				b.Fatal(rec.Error)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		for i := 0; i < b.N; i++ {
			rec, events := campaign.ExecuteInstrumented(spec, campaign.ExecConfig{
				Metrics: reg, Trace: true,
			})
			if rec.Error != "" {
				b.Fatal(rec.Error)
			}
			if len(events) == 0 {
				b.Fatal("enabled run emitted no trace events")
			}
		}
	})
}
