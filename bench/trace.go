package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
	"safemeasure/internal/lab"
	"safemeasure/internal/telemetry"
)

// Shares of a traced run's seconds: untraced rounds for the runtime
// counters, the traced pass, then the layer micro-benchmarks. The
// service-open workload first spends serviceTraceShare of the run on a short
// service session for the service-layer counters.
const (
	runtimeShare      = 0.3
	tracedShare       = 0.4
	microShare        = 0.3
	serviceTraceShare = 0.3
)

// span is one traced interval. Parent is -1 for a root; Run numbers the
// spec within the traced pass, so every span of one run shares it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	ctx   context.Context
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent, run int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: run, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// leaf runs f inside a span and under a pprof label naming its layer, so
// profile samples taken inside it carry the layer too.
func (t *tracer) leaf(parent, run int, name, layer string, f func()) {
	id := t.begin(parent, run, name)
	pprof.Do(t.ctx, pprof.Labels("layer", layer), func(context.Context) { f() })
	t.end(id)
}

// selfTimes sums each span name's self time: its duration minus the time
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// durations sums each span name's full duration.
func (t *tracer) durations() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// A traced run fails when its layer spans leave more than a tenth of the
// decomposed runs' time unattributed, or when the decomposed layer calls
// take a tenth more or less time than the campaign.ExecuteInstrumented they
// replay: either way the per-layer numbers no longer describe the run. The
// gap is judged only over minGapRuns runs or more; over fewer, where a few
// garbage collections happen to fall decides it.
const (
	minSpanCoverage = 0.90
	maxDecompGap    = 0.10
	minGapRuns      = 1000
)

// spanCoverage is the share of the decomposed runs' time (the
// bench.decomposed spans) that the layer spans' self times cover. Root and
// glue spans never count, so time spent between layer calls lowers it.
func (t *tracer) spanCoverage() float64 {
	self, dur := t.selfTimes(), t.durations()
	var covered time.Duration
	for _, n := range layerSpans {
		covered += self[n]
	}
	return ratio(covered.Seconds(), dur["bench.decomposed"].Seconds())
}

// decompGap is |the decomposed layer calls replaying a run − the
// campaign.execute spans| ÷ the campaign.execute spans.
func (t *tracer) decompGap() float64 {
	dur := t.durations()
	var decomposed time.Duration
	for _, n := range executeSpans {
		decomposed += dur[n]
	}
	exec := dur["campaign.execute"]
	return ratio((decomposed - exec).Abs().Seconds(), exec.Seconds())
}

// technique mirrors campaign's E11 tuning of each technique, which the
// package keeps unexported. The traced pass compares its records with
// campaign.ExecuteInstrumented byte for byte, so any drift fails the run.
func technique(name string) (core.Technique, bool) {
	switch name {
	case "syn-scan":
		return &core.SYNScan{Ports: 100}, true
	case "ddos":
		return &core.DDoS{Requests: 30}, true
	case "spoofed-dns":
		return &core.SpoofedDNS{Covers: 8}, true
	case "spoofed-syn":
		return &core.SpoofedSYN{Covers: 8}, true
	case "stateful-spoof":
		return &core.Stateful{Covers: 4}, true
	}
	return core.ByName(name)
}

// recordName renders the pristine link and the faithful censor as "", the
// way records carry them.
func recordName(name string) string {
	if name == lab.ImpairmentNone || name == lab.BehaviorNone {
		return ""
	}
	return name
}

// labConfig assembles the lab config campaign.ExecuteInstrumented builds for
// a spec.
func labConfig(spec campaign.RunSpec, arts map[string]*lab.Artifacts) (lab.Config, lab.Scenario, error) {
	sc, ok := lab.ScenarioByName(spec.Scenario)
	imp, ok2 := lab.ImpairmentByName(spec.Impairment)
	bhv, ok3 := lab.BehaviorByName(spec.Behavior)
	if !ok || !ok2 || !ok3 {
		return lab.Config{}, sc, fmt.Errorf("bench: unknown cell %s/%s/%s", spec.Scenario, spec.Impairment, spec.Behavior)
	}
	cfg := sc.Config(spec.Seed)
	cfg.Impair = imp.Impair
	cfg.Behavior = bhv.Behavior
	if arts[sc.Name] == nil {
		a, err := lab.NewArtifacts(sc.Config(0))
		if err != nil {
			return lab.Config{}, sc, err
		}
		arts[sc.Name] = a
	}
	cfg.Artifacts = arts[sc.Name]
	return cfg, sc, nil
}

// tracedSpec is one spec of the traced pass with its part's retry policy.
type tracedSpec struct {
	campaign.RunSpec
	retry core.RetryPolicy
}

// layerSpans are the decomposed pass's spans around its calls into the
// layers, in call order. Their self times are what the trace attributes;
// the root and glue spans around them are not.
var layerSpans = []string{
	"lab.config", "lab.new", "population.start", "core.schedule", "netsim.run",
	"core.risk", "core.record", "campaign.flatten", "archival.write",
}

// executeSpans are the layer spans that replay campaign.ExecuteInstrumented,
// which neither flattens nor archives.
var executeSpans = layerSpans[:7]

// decomposer replays campaign.ExecuteInstrumented one layer call at a time,
// each inside its own span, then flattens and archives the record.
type decomposer struct {
	t       *tracer
	horizon time.Duration
	arts    map[string]*lab.Artifacts
	reg     *telemetry.Registry
	w       archival.Writer
	events  int
	recs    []campaign.RunRecord
}

func (d *decomposer) run(parent, run int, spec tracedSpec) ([]archival.Observation, error) {
	tech, ok := technique(spec.Technique)
	if !ok {
		return nil, fmt.Errorf("bench: unknown technique %q", spec.Technique)
	}
	var cfg lab.Config
	var sc lab.Scenario
	var err error
	d.t.leaf(parent, run, "lab.config", "lab", func() { cfg, sc, err = labConfig(spec.RunSpec, d.arts) })
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = d.reg
	rec := campaign.RunRecord{Scenario: spec.Scenario, Impairment: recordName(spec.Impairment),
		Behavior: recordName(spec.Behavior), Trial: spec.Trial}
	var l *lab.Lab
	d.t.leaf(parent, run, "lab.new", "lab", func() { l, err = lab.New(cfg) })
	if err != nil {
		return nil, fmt.Errorf("bench: lab: %w", err)
	}
	d.t.leaf(parent, run, "population.start", "population", func() { l.StartPopulation(d.horizon) })
	var res *core.Result
	tgt := core.Target{Domain: sc.Domain, Path: sc.Path, Port: sc.Port, Addr: sc.Addr}
	d.t.leaf(parent, run, "core.schedule", "core", func() {
		core.RunWithRetry(l, tech, tgt, spec.retry, func(r *core.Result) { res = r })
	})
	d.t.leaf(parent, run, "netsim.run", "netsim", func() { d.events += l.Run() })
	if res == nil {
		rec.Technique, rec.Seed = spec.Technique, spec.Seed
		rec.Error = spec.Technique + " never completed"
	} else {
		var risk core.RiskReport
		d.t.leaf(parent, run, "core.risk", "core", func() { risk = core.EvaluateRisk(l, lab.ClientAddr) })
		d.t.leaf(parent, run, "core.record", "core", func() {
			rec.Record = core.NewRecord(res, risk, spec.Seed, l.Sim.Now())
			rec.GroundTruth = sc.Censored
			rec.Correct = (res.Verdict == core.VerdictCensored) == sc.Censored &&
				res.Verdict != core.VerdictInconclusive
		})
	}
	d.recs = append(d.recs, rec)
	var obs []archival.Observation
	d.t.leaf(parent, run, "campaign.flatten", "campaign", func() { obs = campaign.FlattenRecord(rec) })
	d.t.leaf(parent, run, "archival.write", "archival", func() { d.w.WriteObservations(obs) })
	return obs, nil
}

// encodeRows renders observation rows in the binary archive encoding.
func encodeRows(obs []archival.Observation) []byte {
	var b []byte
	for i := range obs {
		b = archival.AppendObservation(b, &obs[i])
	}
	return b
}

// traceOrder lists every part's specs with their retry policy, trial by
// trial, so a pass of any length covers every cell of every part (plans list
// each cell's trials together).
func traceOrder(sh shape, plans []*campaign.Plan) []tracedSpec {
	var specs []tracedSpec
	for i, plan := range plans {
		for _, s := range plan.Specs {
			specs = append(specs, tracedSpec{s, sh.parts[i].retry})
		}
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Trial < specs[j].Trial })
	return specs
}

// tracedPass runs specs for about d. Per spec it times an untraced
// campaign.ExecuteInstrumented (the reference), a campaign.execute span with
// telemetry on, and the decomposed pass; all three must flatten to the same
// bytes, and the two telemetry registries must end with equal counters.
func tracedPass(ctx context.Context, res *Result, order []tracedSpec, horizon time.Duration, archivePath string, d time.Duration) (*tracer, *decomposer, error) {
	f, err := os.Create(archivePath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// Compile every scenario's artifacts before the pass: the campaign's own
	// cache is already warm from the untraced rounds, so a first compile
	// inside a lab.config span would count against the decomposition.
	arts := map[string]*lab.Artifacts{}
	for _, spec := range order {
		if arts[spec.Scenario] == nil {
			if _, _, err := labConfig(spec.RunSpec, arts); err != nil {
				return nil, nil, err
			}
		}
	}
	t := &tracer{ctx: ctx, t0: time.Now()}
	dec := &decomposer{t: t, horizon: horizon, arts: arts, reg: telemetry.NewRegistry(),
		w: archival.NewWriter(f, archival.FormatBinary)}
	execReg := telemetry.NewRegistry()
	mismatches := 0
	for run := 0; run == 0 || time.Since(t.t0) < d; run++ {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		spec := order[run%len(order)]
		root := t.begin(-1, run, "bench.run")
		var ref, exec campaign.RunRecord
		t.leaf(root, run, "bench.reference", "reference", func() {
			ref, _ = campaign.ExecuteInstrumented(spec.RunSpec, campaign.ExecConfig{Horizon: horizon, Retry: spec.retry})
		})
		t.leaf(root, run, "campaign.execute", "campaign", func() {
			exec, _ = campaign.ExecuteInstrumented(spec.RunSpec, campaign.ExecConfig{Horizon: horizon,
				Retry: spec.retry, Metrics: execReg})
		})
		decID := t.begin(root, run, "bench.decomposed")
		obs, err := dec.run(decID, run, spec)
		t.end(decID)
		if err != nil {
			return nil, nil, err
		}
		want := encodeRows(campaign.FlattenRecord(exec))
		if !bytes.Equal(want, encodeRows(obs)) || !bytes.Equal(want, encodeRows(campaign.FlattenRecord(ref))) {
			mismatches++
		}
		t.end(root)
	}
	if err := dec.w.Flush(); err != nil {
		return nil, nil, err
	}
	if mismatches > 0 {
		res.fail("traced pass: %d of %d runs flattened differently from campaign.ExecuteInstrumented",
			mismatches, len(dec.recs))
	}
	if a, b := execReg.Snapshot().CountersText(), dec.reg.Snapshot().CountersText(); a != b {
		res.fail("traced pass: the decomposed runs' telemetry counters differ from ExecuteInstrumented's")
	}
	return t, dec, nil
}

// counterSum adds every series of a counter, whatever its labels.
func counterSum(reg *telemetry.Registry, name string) float64 {
	var sum int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			sum += c.Value
		}
	}
	return float64(sum)
}

// runtimeSample names the runtime/metrics counters read around the untraced
// rounds of a traced run.
var runtimeSample = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSample))
	for i, n := range runtimeSample {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// runtimeWindow runs untraced rounds for about d and reports the runtime's
// allocation and GC deltas per run.
func runtimeWindow(ctx context.Context, res *Result, plans []*campaign.Plan, sh shape, dir string, d time.Duration) error {
	before := readRuntime()
	start := time.Now()
	runs := 0
	for n := 0; runs == 0 || time.Since(start) < d; n++ {
		for i, plan := range plans {
			path := roundPath(dir, n, i)
			r, err := runRound(ctx, plan, sh.horizon, sh.parts[i].retry, path)
			if err != nil {
				return err
			}
			if err := os.Remove(path); err != nil {
				return err
			}
			runs += len(r.recs)
			for _, rec := range r.recs {
				if rec.Error != "" {
					res.Failed++
				}
			}
		}
	}
	after := readRuntime()
	res.Attempted += int64(runs)
	delta := func(i int) float64 { return after[i] - before[i] }
	res.set("runtime.allocs_per_run", delta(0)/float64(runs))
	res.set("runtime.bytes_per_run", delta(1)/float64(runs))
	res.set("runtime.gc_cycles_per_1k_runs", 1000*delta(2)/float64(runs))
	res.set("runtime.gc_cpu_frac", ratio(delta(3), delta(4)))
	return nil
}

// runTraced is the per-layer run: a CPU profile covers untraced rounds and
// the traced pass, then the layer micro-benchmarks run unprofiled.
func runTraced(ctx context.Context, p Params, sh shape, dir string) (Result, error) {
	res := newResult()
	seconds := p.Seconds
	if p.Workload == "service-open" {
		sp := p
		sp.Seconds = seconds * serviceTraceShare
		seconds -= sp.Seconds
		sres, sc, err := measureService(ctx, sp, dir)
		if err != nil {
			return res, err
		}
		for _, msg := range sres.Problems() {
			res.fail("service session: %s", msg)
		}
		res.Attempted += sres.Attempted
		res.Failed += sres.Failed
		admitted := sc.hits + sc.joins + sc.misses
		res.set("measured.cache_hit_frac", ratio(sc.hits, admitted))
		res.set("measured.dedup_join_frac", ratio(sc.joins, admitted))
		res.set("measured.warm_records", sc.warmed)
		res.set("measured.journal_bytes_per_req", ratio(float64(sc.journalBytes), float64(sc.requests)))
	} else {
		// Batch workloads never reach the service layer.
		for _, n := range []string{"measured.cache_hit_frac", "measured.dedup_join_frac",
			"measured.warm_records", "measured.journal_bytes_per_req"} {
			res.set(n, 0)
		}
	}
	plans, err := sh.plans(p.Seed, p.Tiny)
	if err != nil {
		return res, err
	}
	order := traceOrder(sh, plans)
	share := func(s float64) time.Duration { return time.Duration(seconds * s * float64(time.Second)) }

	var tr *tracer
	var dec *decomposer
	prof, err := profiled(func() error {
		if err := runtimeWindow(ctx, &res, plans, sh, dir, share(runtimeShare)); err != nil {
			return err
		}
		tr, dec, err = tracedPass(ctx, &res, order, sh.horizon, filepath.Join(dir, "traced.bin"), share(tracedShare))
		return err
	})
	if err != nil {
		return res, err
	}
	reportTrace(&res, tr, dec)
	shares, err := cpuShares(prof)
	if err != nil {
		return res, err
	}
	total := 0.0
	for _, l := range cpuLayers {
		res.set("cpu."+l, shares[l])
		total += shares[l]
	}
	if total < 0.99 || total > 1.01 {
		res.fail("cpu shares sum to %.3f", total)
	}

	if err := runMicro(&res, order, sh.horizon, dec, share(microShare)); err != nil {
		return res, err
	}
	if err := writeTraceOutput(p, tr.spans, prof); err != nil {
		return res, err
	}
	if res.Failed > 0 {
		res.fail("%d of %d runs failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// profiled runs f under the CPU profiler and returns the profile.
func profiled(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// reportTrace sets the metrics the traced pass yields: per-run self times,
// span coverage, the decomposition gap, tracing overhead, and the per-run
// counts from the decomposed runs' telemetry.
func reportTrace(res *Result, t *tracer, dec *decomposer) {
	runs := float64(len(dec.recs))
	res.Attempted += int64(runs)
	self, dur := t.selfTimes(), t.durations()
	for _, n := range []string{"lab.new", "population.start", "core.schedule", "core.risk",
		"core.record", "netsim.run", "campaign.execute", "campaign.flatten", "archival.write"} {
		res.set(n+"_us", float64(self[n].Nanoseconds())/1e3/runs)
	}
	coverage, gap := t.spanCoverage(), t.decompGap()
	res.set("trace.span_coverage_frac", coverage)
	res.set("campaign.decomp_gap_frac", gap)
	res.set("trace.overhead_frac", ratio(dur["campaign.execute"].Seconds(), dur["bench.reference"].Seconds())-1)
	if coverage < minSpanCoverage {
		res.fail("traced pass: layer spans cover %.3f of the decomposed runs' time, want at least %.2f",
			coverage, minSpanCoverage)
	}
	if gap > maxDecompGap && runs >= minGapRuns {
		res.fail("traced pass: the decomposed layer calls take %.3f more or less time than campaign.ExecuteInstrumented, want at most %.2f",
			gap, maxDecompGap)
	}

	attempts := 0
	for _, rec := range dec.recs {
		attempts += rec.Attempts
		if rec.Error != "" {
			res.Failed++
		}
	}
	res.set("core.attempts_per_run", float64(attempts)/runs)
	res.set("core.retries_per_run", counterSum(dec.reg, "core_retries_total")/runs)
	res.set("netsim.events_per_run", float64(dec.events)/runs)
	res.set("netsim.ns_per_event", ratio(float64(dur["netsim.run"].Nanoseconds()), float64(dec.events)))
	res.set("netsim.forwarded_per_run", counterSum(dec.reg, "netsim_forwarded_total")/runs)
	enforced, skipped := counterSum(dec.reg, "censor_enforced_total"), counterSum(dec.reg, "censor_skipped_total")
	res.set("censor.enforced_per_run", enforced/runs)
	res.set("censor.skipped_frac", ratio(skipped, enforced+skipped))
	seen := counterSum(dec.reg, "surveil_packets_seen_total")
	res.set("surveil.seen_per_run", seen/runs)
	res.set("surveil.discard_frac", ratio(counterSum(dec.reg, "surveil_discarded_total"), seen))
}

// writeTraceOutput writes the spans (JSONL) and the CPU profile under
// bench/out, named by workload and seed.
func writeTraceOutput(p Params, spans []span, profile []byte) error {
	if err := os.MkdirAll(p.outDir(), 0o755); err != nil {
		return err
	}
	stem := filepath.Join(p.outDir(), fmt.Sprintf("%s-seed%d", p.Workload, p.Seed))
	if err := os.WriteFile(stem+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
