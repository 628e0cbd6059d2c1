// Package experiments implements the paper's evaluation artifacts, one
// runner per table/figure (see DESIGN.md §4 for the index):
//
//	E1  — Figure 1 / §3.2.1: reference censor + surveillance validation
//	E2  — §3.2.2: scanning measurements (accuracy + evasion)
//	E3  — Figure 2 / §3.2.3: spam-score CDF and GFC DNS validation
//	E4  — §3.1 Method #3: DDoS-mimicry measurements
//	E5  — §2.2: Syrian log analysis (1.57 % statistic)
//	E6  — Figure 3a: stateless spoofed-cover measurements
//	E7  — Figure 3b: stateful mimicry with TTL-limited replies
//	E8  — §4.2: spoofing feasibility (Beverly fractions)
//	E9  — §2.1: MVR storage/retention model
//	E10 — §6: ethics load accounting
//	E11 — headline matrix: the campaign engine's default plan at E11Trials
//	      trials per cell, the uncensored control included, with the
//	      thesis checked as k/n claims over every run (CheckClaims)
//	E12 — ablations: MVR discard, censor reassembly, residual blocking
//
// Every runner is deterministic for a given seed and returns a result
// struct with a Render() string that prints the same rows/series the paper
// reports. cmd/labbench prints them; bench_test.go at the repository root
// regenerates each under `go test -bench`.
package experiments

import (
	"fmt"
	"time"

	"safemeasure/internal/core"
	"safemeasure/internal/lab"
)

// runProbe builds a lab, optionally starts population cover traffic, runs
// one technique, and returns the measurement result plus the measurer's
// risk report.
func runProbe(cfg lab.Config, tech core.Technique, tgt core.Target, popHorizon time.Duration) (*core.Result, core.RiskReport, *lab.Lab, error) {
	if cfg.PopulationSize == 0 {
		cfg.PopulationSize = 20
	}
	l, err := lab.New(cfg)
	if err != nil {
		return nil, core.RiskReport{}, nil, err
	}
	if popHorizon > 0 {
		l.StartPopulation(popHorizon)
	}
	var res *core.Result
	tech.Run(l, tgt, func(r *core.Result) { res = r })
	l.Run()
	if res == nil {
		return nil, core.RiskReport{}, nil, fmt.Errorf("experiments: %s never completed", tech.Name())
	}
	return res, core.EvaluateRisk(l, lab.ClientAddr), l, nil
}

// boolMark renders ✓/✗ for table cells.
func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
