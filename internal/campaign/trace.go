package campaign

import "safemeasure/internal/telemetry"

// RunTrace is one run's packet-path event stream plus the plan coordinates
// (and lab seed) that identify it. Events are in emission order and carry
// virtual-time timestamps, so a run's trace depends only on its seed —
// never on worker count or scheduling.
type RunTrace struct {
	Scenario   string
	Impairment string // "" means the pristine link
	Behavior   string // "" means the faithful censor
	Technique  string
	Trial      int
	Seed       int64
	Events     []telemetry.Event
}
