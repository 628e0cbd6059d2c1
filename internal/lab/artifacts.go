package lab

import (
	"fmt"
	"net/netip"
	"slices"

	"safemeasure/internal/censor"
	"safemeasure/internal/dnssim"
	"safemeasure/internal/ids"
)

// Artifacts holds the immutable, compile-once parts of a lab: the censor's
// compiled ruleset, the surveillance system's compiled ruleset, the DNS
// zone, and the site catalog. None of these depend on the seed, only on the
// (scenario, impairment)-level config fields — so one Artifacts value can
// back any number of concurrent lab.New calls, which is how campaign
// workers stop recompiling two Aho-Corasick automata and rebuilding the
// zone for every one of a campaign's thousands of runs.
//
// Everything reachable from an Artifacts value is treated as read-only by
// the lab and every subsystem it hands the values to; callers must not
// mutate the returned site slices or zone.
type Artifacts struct {
	// Inputs the artifacts were derived from, kept for validation: a lab
	// refuses artifacts built for a different config rather than silently
	// simulating the wrong censor.
	censorCfg  censor.Config
	surveilSrc string // Config.SurveilRules override ("" = derived default)
	siteCount  int

	censor    *censor.Compiled
	surveil   *ids.CompiledRules
	zone      *dnssim.Zone
	innocuous []string
	censored  []string
}

// NewArtifacts compiles the shareable parts of a lab for cfg. Only the
// compile-relevant fields matter (Censor, SurveilRules, SiteCount); cfg is
// normalized exactly as lab.New normalizes it, so artifacts built from a
// scenario preset match every per-seed Config the preset later produces.
func NewArtifacts(cfg Config) (*Artifacts, error) {
	cfg = normalize(cfg)
	a := &Artifacts{
		censorCfg:  cfg.Censor,
		surveilSrc: cfg.SurveilRules,
		siteCount:  cfg.SiteCount,
	}

	var err error
	if a.censor, err = censor.Compile(cfg.Censor); err != nil {
		return nil, err
	}

	ruleText := cfg.SurveilRules
	if ruleText == "" {
		ruleText = DefaultSurveilRules(cfg.Censor)
	}
	rules, err := ids.ParseRules(ruleText, map[string]netip.Prefix{"HOME_NET": ClientASPrefix})
	if err != nil {
		return nil, fmt.Errorf("lab: surveillance rules: %w", err)
	}
	a.surveil = ids.Compile(rules)

	// Site catalog and DNS zone: innocuous sites on the main web server,
	// censored sites on the sensitive one; every domain gets an MX at the
	// mail server.
	zone := dnssim.NewZone()
	for i := 0; i < cfg.SiteCount; i++ {
		site := fmt.Sprintf("site%02d.test", i)
		a.innocuous = append(a.innocuous, site)
		zone.AddA(site, WebAddr)
		zone.AddMX(site, 10, "mx."+site)
		zone.AddA("mx."+site, MailAddr)
	}
	a.censored = append([]string(nil), cfg.Censor.BlockedDomains...)
	for _, site := range a.censored {
		zone.AddA(site, SensitiveAddr)
		zone.AddA("www."+site, SensitiveAddr)
		zone.AddMX(site, 10, "mx."+site)
		zone.AddA("mx."+site, MailAddr)
	}
	zone.AddA("measure.test", MeasureAddr)
	a.zone = zone
	return a, nil
}

// matches reports whether these artifacts were compiled from the same
// compile-relevant fields as cfg (which must already be normalized).
func (a *Artifacts) matches(cfg Config) error {
	switch {
	case !sameCensorConfig(a.censorCfg, cfg.Censor):
		return fmt.Errorf("lab: Artifacts were compiled for a different censor config (%+v vs %+v); build artifacts from this exact config with NewArtifacts", a.censorCfg, cfg.Censor)
	case a.surveilSrc != cfg.SurveilRules:
		return fmt.Errorf("lab: Artifacts were compiled for different surveillance rules; build artifacts from this exact config with NewArtifacts")
	case a.siteCount != cfg.SiteCount:
		return fmt.Errorf("lab: Artifacts were compiled for SiteCount=%d, config wants %d; build artifacts from this exact config with NewArtifacts", a.siteCount, cfg.SiteCount)
	}
	return nil
}

// sameCensorConfig reports whether two censor configs compile alike.
// TestSameCensorConfigSeesEveryField fails when a field is added to
// censor.Config but not compared here.
func sameCensorConfig(a, b censor.Config) bool {
	return slices.Equal(a.Keywords, b.Keywords) &&
		slices.Equal(a.BlockedDomains, b.BlockedDomains) &&
		a.PoisonAddr == b.PoisonAddr &&
		slices.Equal(a.Blackholed, b.Blackholed) &&
		slices.Equal(a.BlockedPorts, b.BlockedPorts) &&
		a.DisableReassembly == b.DisableReassembly &&
		a.ResidualBlock == b.ResidualBlock
}
