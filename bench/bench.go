// Package bench is the repository's layered benchmark. It drives the
// campaign engine and the safemeasured service from outside, through their
// public functions and HTTP surface, checks every output it times, and
// reports either end-to-end metrics (an untraced run) or per-layer metrics
// (a separate traced run).
//
// Four workloads stress different layers:
//
//   - e11-batch: the paper's E11 matrix as a campaign user runs it; the
//     packet path (netsim, packet, ids, surveil, censor) carries the load.
//   - probe-only: short cover horizons and no flood techniques, so the fixed
//     per-run costs (lab construction, verdict, flatten, archive) dominate.
//   - adversarial: adversarial censors behind lossless links with k-of-n
//     corroboration, plus lossy links under the retry ladder; corroboration,
//     retries and the censor behavior gate carry the load.
//   - service-open: an open-loop request stream against safemeasured, the
//     only workload where request latency and restart time matter.
package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
)

// poolWorkers is the campaign pool size and the service's worker count: the load
// of every workload comes from one process with at most two workers.
const poolWorkers = 2

// setup_s is the median over several fresh-process launches. A batch run
// launches once per round, cycling through setupSeeds plan seeds; a service
// launch (warm-starting 21,000 records) costs a few hundred milliseconds, so
// the service run launches serviceSetupLaunches times before its load.
const (
	setupSeeds           = 1000
	serviceSetupLaunches = 7
)

// Params selects and sizes one benchmark run.
type Params struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace selects the traced run, which reports per-layer metrics instead
	// of end-to-end ones.
	Trace bool
	// Tiny shrinks every plan to a handful of runs so a whole workload
	// finishes in about a second; the smoke test uses it.
	Tiny bool
	// Root is the checkout root. Scratch files go under Root/.bench_build/work
	// and trace output under Root/bench/out.
	Root string
	// Safemeasured is the service binary the service-open workload launches.
	Safemeasured string
}

func (p Params) workDir() string { return filepath.Join(p.Root, ".bench_build", "work") }
func (p Params) outDir() string  { return filepath.Join(p.Root, "bench", "out") }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// problems explains Correct == false; printed to standard error.
	problems []string
}

// maxProblems bounds how many failed checks a run keeps for its report.
const maxProblems = 20

// fail records a failed correctness check.
func (r *Result) fail(format string, args ...any) {
	r.Correct = false
	switch n := len(r.problems); {
	case n < maxProblems:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	case n == maxProblems:
		r.problems = append(r.problems, "further failed checks omitted")
	}
}

// Problems lists the correctness checks the run failed.
func (r *Result) Problems() []string { return r.problems }

// set stores a metric under its name, taking the unit from the metric table.
func (r *Result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " has no unit")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func newResult() Result { return Result{Correct: true, Metrics: map[string]Metric{}} }

// endToEnd names the metrics an untraced run reports, in report order.
var endToEnd = []string{
	"runs_per_s", "cpu_ms_per_run", "peak_rss_mb", "archive_read_mb_s",
	"setup_s", "req_p50_ms", "req_p90_ms",
}

// metricUnits is the unit of every metric either kind of run reports.
var metricUnits = map[string]string{
	"runs_per_s":        "1/s",
	"cpu_ms_per_run":    "ms",
	"peak_rss_mb":       "MiB",
	"archive_read_mb_s": "MiB/s",
	"setup_s":           "s",
	"req_p50_ms":        "ms",
	"req_p90_ms":        "ms",

	"lab.new_us":                     "us",
	"lab.new_allocs":                 "count",
	"population.start_us":            "us",
	"core.schedule_us":               "us",
	"core.risk_us":                   "us",
	"core.record_us":                 "us",
	"core.attempts_per_run":          "count",
	"core.retries_per_run":           "count",
	"netsim.run_us":                  "us",
	"netsim.events_per_run":          "count",
	"netsim.ns_per_event":            "ns",
	"netsim.forwarded_per_run":       "count",
	"netsim.forward_ns":              "ns",
	"packet.parse_ns":                "ns",
	"packet.parse_allocs":            "count",
	"ids.feed_ns":                    "ns",
	"ids.feed_allocs":                "count",
	"censor.observe_ns":              "ns",
	"surveil.observe_ns":             "ns",
	"censor.enforced_per_run":        "count",
	"censor.skipped_frac":            "frac",
	"surveil.discard_frac":           "frac",
	"surveil.seen_per_run":           "count",
	"tcpsim.connect_send_close_ns":   "ns",
	"websim.get_ns":                  "ns",
	"dnssim.query_ns":                "ns",
	"campaign.execute_us":            "us",
	"campaign.flatten_us":            "us",
	"campaign.flatten_allocs":        "count",
	"campaign.decomp_gap_frac":       "frac",
	"archival.write_us":              "us",
	"archival.bytes_per_run":         "B",
	"archival.encode_binary_ns":      "ns",
	"archival.decode_binary_ns":      "ns",
	"measured.cache_hit_frac":        "frac",
	"measured.dedup_join_frac":       "frac",
	"measured.warm_records":          "count",
	"measured.journal_bytes_per_req": "B",
	"runtime.allocs_per_run":         "count",
	"runtime.bytes_per_run":          "B",
	"runtime.gc_cycles_per_1k_runs":  "count",
	"runtime.gc_cpu_frac":            "frac",
	"trace.overhead_frac":            "frac",
	"trace.span_coverage_frac":       "frac",
}

// PerLayer names the metrics a traced run reports, sorted: every metric
// that is not end-to-end.
func perLayer() []string {
	e2e := map[string]bool{}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var out []string
	for n := range metricUnits {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// init adds one CPU share per cpuLayers bucket to the metric table.
func init() {
	for _, l := range cpuLayers {
		metricUnits["cpu."+l] = "frac"
	}
}

// shape is a workload's run matrix, shared by the untraced and traced runs:
// the per-run horizon and one or more parts, each swept by its own
// campaign.RunContext call because a call takes a single retry policy.
type shape struct {
	horizon time.Duration
	parts   []part
}

// part is one plan of a shape and the retry policy its runs use.
type part struct {
	retry core.RetryPolicy
	plan  func(seed int64, tiny bool) (*campaign.Plan, error)
}

// plans builds every part's plan for a seed.
func (sh shape) plans(seed int64, tiny bool) ([]*campaign.Plan, error) {
	out := make([]*campaign.Plan, len(sh.parts))
	for i, pt := range sh.parts {
		p, err := pt.plan(seed, tiny)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// probeTechniques are every technique except the two floods (syn-scan,
// ddos), whose per-run packet counts would hide fixed per-run costs.
var probeTechniques = []string{
	"overt-dns", "overt-http", "overt-tcp", "spam",
	"spoofed-dns", "spoofed-syn", "stateful-spoof",
}

// retryTechniques are the techniques whose runs end in a verdict on the
// lossy5 and corrupt links. Under loss, spam and ddos runs (and overt-http
// runs against the open scenario under lossy20) sometimes end as "never
// completed" error records, and the benchmark's workloads must not fail
// operations.
var retryTechniques = []string{
	"overt-dns", "overt-http", "overt-tcp", "spoofed-dns",
	"spoofed-syn", "stateful-spoof", "syn-scan",
}

// mixCells is measload's request mix: applicable (technique, scenario)
// cells spanning the overt, mimicry and spoofed families.
var mixCells = [][2]string{
	{"overt-dns", "dns-poison"},
	{"overt-http", "keyword-rst"},
	{"overt-tcp", "blackhole"},
	{"spam", "dns-poison"},
	{"syn-scan", "port-block"},
	{"spoofed-dns", "dns-poison"},
	{"ddos", "keyword-rst"},
	{"stateful-spoof", "keyword-rst"},
}

// shapes holds each workload's matrix. Round sizes keep one
// campaign.RunContext call near half a second, so a run yields a few dozen
// rounds (see bestQuarter).
var shapes = map[string]shape{
	"e11-batch": {
		horizon: campaign.DefaultHorizon,
		parts: []part{{plan: func(seed int64, tiny bool) (*campaign.Plan, error) {
			return campaign.NewPlan(campaign.PlanConfig{Trials: pick(tiny, 1, 50), Seed: seed})
		}}},
	},
	"probe-only": {
		horizon: 50 * time.Millisecond,
		parts: []part{{plan: func(seed int64, tiny bool) (*campaign.Plan, error) {
			return campaign.NewPlan(campaign.PlanConfig{Techniques: probeTechniques,
				Trials: pick(tiny, 2, 500), Seed: seed})
		}}},
	},
	"adversarial": {
		horizon: campaign.DefaultHorizon,
		parts: []part{
			// Every adversarial censor behind the lossless impairments, each
			// run corroborated 3 times (which bypasses the retry ladder).
			{retry: core.RetryPolicy{Corroborate: 3}, plan: func(seed int64, tiny bool) (*campaign.Plan, error) {
				return campaign.NewPlan(campaign.PlanConfig{
					Impairments: []string{lab.ImpairmentNone, "reorder", "dup"},
					Behaviors:   []string{"all"},
					Trials:      pick(tiny, 1, 3), Seed: seed})
			}},
			// The faithful censor behind lossy links under the default retry
			// policy: loss turns probes silent or inconclusive, so the retry
			// ladder runs (about 2.1 attempts per run).
			{plan: func(seed int64, tiny bool) (*campaign.Plan, error) {
				return campaign.NewPlan(campaign.PlanConfig{Techniques: retryTechniques,
					Impairments: []string{"lossy5", "corrupt"},
					Trials:      pick(tiny, 1, 10), Seed: seed})
			}},
		},
	},
	"service-open": {
		horizon: campaign.DefaultHorizon,
		parts: []part{{plan: func(seed int64, tiny bool) (*campaign.Plan, error) {
			return cellPlan(mixCells, pick(tiny, 2, 250), seed)
		}}},
	},
}

// workloads lists the workload names in report order.
var workloads = []string{"e11-batch", "probe-only", "adversarial", "service-open"}

func pick(tiny bool, small, full int) int {
	if tiny {
		return small
	}
	return full
}

// cellPlan builds one plan over an explicit cell list (NewPlan sweeps a
// cross product), re-indexed contiguously.
func cellPlan(cells [][2]string, trials int, seed int64) (*campaign.Plan, error) {
	out := &campaign.Plan{Seed: seed}
	for _, c := range cells {
		p, err := campaign.NewPlan(campaign.PlanConfig{Techniques: []string{c[0]},
			Scenarios: []string{c[1]}, Trials: trials, Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, s := range p.Specs {
			s.Index = len(out.Specs)
			out.Specs = append(out.Specs, s)
		}
	}
	return out, nil
}

// Run executes one benchmark run.
func Run(ctx context.Context, p Params) (Result, error) {
	sh, ok := shapes[p.Workload]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown workload %q (known: %v)", p.Workload, workloads)
	}
	if p.Seconds <= 0 {
		return Result{}, fmt.Errorf("bench: --seconds must be positive")
	}
	if err := os.MkdirAll(p.workDir(), 0o755); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp(p.workDir(), p.Workload+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	switch {
	case p.Trace:
		return runTraced(ctx, p, sh, dir)
	case p.Workload == "service-open":
		return runService(ctx, p, dir)
	default:
		return runBatch(ctx, p, sh, dir)
	}
}

// median returns the middle value (the mean of the middle two); 0 when
// empty.
func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

// bestQuarter returns the mean of the best quarter of per-round (or
// per-window) values, higher or lower being better. Interference from other
// work on a shared host only ever slows a round down, and on the reference
// host it comes in episodes of several seconds that can cover most of a
// run, so the best quarter estimates the undisturbed value far more steadily
// than the median of all rounds.
func bestQuarter(v []float64, higher bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Slice(s, func(i, j int) bool {
		if higher {
			return s[i] > s[j]
		}
		return s[i] < s[j]
	})
	n := (len(s) + 3) / 4
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// quantile returns the q-th quantile of v by linear interpolation between
// closest ranks; v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
