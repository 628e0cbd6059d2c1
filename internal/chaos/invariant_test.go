package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
)

// invariantPlan is the matrix every interrupt scenario replays: one
// censoring scenario, its three applicable techniques, two trials — small
// enough to interrupt dozens of times, rich enough that the aggregate has
// real per-cell content to diverge on.
func invariantPlan(t *testing.T) *campaign.Plan {
	t.Helper()
	p, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"dns-poison"}, Trials: 2, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func keyLess(a, b campaign.DoneKey) bool {
	if a.Scenario != b.Scenario {
		return a.Scenario < b.Scenario
	}
	if a.Impairment != b.Impairment {
		return a.Impairment < b.Impairment
	}
	if a.Behavior != b.Behavior {
		return a.Behavior < b.Behavior
	}
	if a.Technique != b.Technique {
		return a.Technique < b.Technique
	}
	return a.Trial < b.Trial
}

// canonicalize reduces a record set to its scheduling-independent form:
// error-free records only (error records are resume fodder, not results),
// no duplicate coordinates allowed, sorted by coordinate, rendered as JSONL
// plus the aggregate tables built from exactly that order.
func canonicalize(t *testing.T, recs []campaign.RunRecord) (jsonl, agg string) {
	t.Helper()
	var ok []campaign.RunRecord
	seen := map[campaign.DoneKey]int{}
	for _, r := range recs {
		if r.Error != "" {
			continue
		}
		seen[r.Key()]++
		ok = append(ok, r)
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("duplicate run coordinate %+v: %d error-free records", k, n)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return keyLess(ok[i].Key(), ok[j].Key()) })
	lines := make([]string, len(ok))
	for i, r := range ok {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	return strings.Join(lines, "\n"), campaign.Aggregate(ok).Render()
}

// newArchive creates the observation archive at path (the extension picks
// the encoding) and returns a sink writing to it; wrap, when non-nil, sits
// between the writer and the file — the fault-injection seam.
func newArchive(t *testing.T, path string, wrap func(io.Writer) io.Writer) *campaign.ObservationSink {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	return campaign.NewObservationSink(archival.NewWriter(w, archival.FormatForPath(path)))
}

// readArchive reads every record of a finished archive.
func readArchive(t *testing.T, path string) []campaign.RunRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := archival.NewReader(f, archival.TailStrict, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []campaign.RunRecord
	if err := campaign.ReadRecords(rd, func(rec campaign.RunRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("%s unreadable: %v", path, err)
	}
	return recs
}

// resumeOnly finishes an interrupted campaign exactly the way cmd/campaign
// -resume does: campaign.ReadDoneFile repairs the archive (torn row, then
// the final run group) and builds the done set, and the Remaining plan
// appends.
func resumeOnly(t *testing.T, plan *campaign.Plan, workers int, path string) {
	t.Helper()
	done, err := campaign.ReadDoneFile(path, nil)
	if err != nil {
		t.Fatalf("resume preparation: %v", err)
	}
	rest := plan.Remaining(done)
	if len(rest.Specs) == 0 {
		return
	}
	w, f, err := archival.OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := campaign.NewObservationSink(w)
	if _, err := campaign.Run(rest, campaign.Options{Workers: workers, OnRecord: sink.Record}); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("resume sink: %v", err)
	}
}

// resumeAndCheck resumes an interrupted campaign (resumeOnly), then asserts
// the three invariants: nothing lost, nothing duplicated, and the final
// records and aggregate byte-identical to the uninterrupted baseline.
func resumeAndCheck(t *testing.T, plan *campaign.Plan, workers int, path string,
	wantJSONL, wantAgg string) {
	t.Helper()
	resumeOnly(t, plan, workers, path)
	final := readArchive(t, path)
	gotJSONL, gotAgg := canonicalize(t, final)
	if done := campaign.DoneSet(final); len(done) != len(plan.Specs) {
		t.Fatalf("lost runs: %d of %d coordinates completed", len(done), len(plan.Specs))
	}
	if gotJSONL != wantJSONL {
		t.Fatalf("resumed records diverge from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			gotJSONL, wantJSONL)
	}
	if gotAgg != wantAgg {
		t.Fatalf("resumed aggregate diverges from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s",
			gotAgg, wantAgg)
	}
}

// TestInterruptResumeInvariant interrupts a campaign at ≥20 seeded points —
// context cancel mid-stream, sink write errors and torn short writes at
// seeded byte offsets, executor panics and hangs on seeded schedules — then
// resumes each wreck and requires the final output to be byte-identical to
// an uninterrupted run, at workers 1 and 8. Run it under -race: the drain,
// claim-gate, and callback-guard paths are all concurrent.
func TestInterruptResumeInvariant(t *testing.T) {
	plan := invariantPlan(t)
	nspecs := len(plan.Specs)

	// The baseline is computed once at workers=1; every (mode, workers,
	// seed) cell must reproduce it, which also re-proves worker-count
	// determinism along the way. Its archive sizes, one per encoding, bound
	// the sink-failure offsets.
	dir := t.TempDir()
	fileSize := map[string]int64{}
	var baseSinks []*campaign.ObservationSink
	for _, ext := range []string{"jsonl", "bin"} {
		baseSinks = append(baseSinks, newArchive(t, filepath.Join(dir, "base."+ext), nil))
	}
	baseRecs, err := campaign.Run(plan, campaign.Options{Workers: 1, OnRecord: func(rec campaign.RunRecord) {
		for _, s := range baseSinks {
			s.Record(rec)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ext := range []string{"jsonl", "bin"} {
		if err := baseSinks[i].Flush(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "base."+ext))
		if err != nil {
			t.Fatal(err)
		}
		fileSize[ext] = st.Size()
	}
	wantJSONL, wantAgg := canonicalize(t, baseRecs)

	points := 0
	for _, workers := range []int{1, 8} {
		workers := workers

		// Mode 1: context cancel after a seeded number of records, full
		// drain (negative grace), resume the undispatched tail.
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			cut := 1 + rng.Intn(nspecs)
			points++
			t.Run(fmt.Sprintf("cancel/workers=%d/cut=%d", workers, cut), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out.jsonl")
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := newArchive(t, path, nil)
				hook := CancelAfter(cut, cancel)
				_, err := campaign.RunContext(ctx, plan, campaign.Options{
					Workers: workers,
					Grace:   -1,
					OnRecord: func(rec campaign.RunRecord) {
						hook(rec)
						sink.Record(rec)
					},
				})
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}

		// Mode 2: the sink's stream dies at a seeded byte offset — hard
		// error and torn short write, into a JSONL and a binary archive.
		// The campaign itself completes; the file loses its tail; resume
		// must regenerate exactly the lost runs.
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(2000 + seed))
			ext := []string{"jsonl", "bin"}[seed/2]
			failAfter := rng.Int63n(fileSize[ext])
			short := seed%2 == 1
			points++
			t.Run(fmt.Sprintf("sinkfail/workers=%d/%s/at=%d/short=%v", workers, ext, failAfter, short),
				func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "out."+ext)
					var fw *FlakyWriter
					sink := newArchive(t, path, func(w io.Writer) io.Writer {
						fw = &FlakyWriter{W: w, FailAfter: failAfter, Short: short}
						return fw
					})
					sink.SyncEvery(1) // every run hits the flaky stream immediately
					if _, err := campaign.Run(plan, campaign.Options{
						Workers: workers, OnRecord: sink.Record,
					}); err != nil {
						t.Fatal(err)
					}
					if err := sink.Flush(); err == nil && fw.Failed() {
						t.Fatal("sink swallowed the injected failure")
					}
					resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
				})
		}

		// Mode 3: the executor panics on a seeded schedule; panicked runs
		// become error records that resume must re-execute.
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(3000 + seed))
			every := 1 + rng.Intn(4)
			points++
			t.Run(fmt.Sprintf("panic/workers=%d/every=%d", workers, every), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out.jsonl")
				sink := newArchive(t, path, nil)
				if _, err := campaign.Run(plan, campaign.Options{
					Workers: workers, OnRecord: sink.Record,
					Execute: PanicEvery(every, nil),
				}); err != nil {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}

		// Mode 4: the executor wedges past the pool timeout on a seeded
		// schedule; abandoned runs become timeout error records (publishing
		// nothing, by the claim gate) that resume re-executes.
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(4000 + seed))
			every := 2 + rng.Intn(3)
			points++
			t.Run(fmt.Sprintf("hang/workers=%d/every=%d", workers, every), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out.jsonl")
				sink := newArchive(t, path, nil)
				if _, err := campaign.Run(plan, campaign.Options{
					Workers: workers, OnRecord: sink.Record,
					Timeout: 30 * time.Millisecond,
					Execute: HangEvery(every, 200*time.Millisecond, nil),
				}); err != nil {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}
	}
	if points < 20 {
		t.Fatalf("only %d seeded interrupt points exercised, want >= 20", points)
	}
}

// TestInterruptResumeInvariantAdversarialCensor repeats the interrupt/resume
// invariant with the censor itself misbehaving: the plan sweeps every
// adversarial censor-behavior preset, campaigns are interrupted at seeded
// points, and the resumed output must still be byte-identical to an
// uninterrupted run. This is the episode that proves behavior state
// (intermittent flow decisions, throttle token buckets, injector budgets)
// lives entirely inside each run's lab — a resumed run re-derives it from
// the seed, never from process state the interrupt destroyed.
func TestInterruptResumeInvariantAdversarialCensor(t *testing.T) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{
		Scenarios: []string{"keyword-rst"}, Behaviors: []string{"all"},
		Trials: 1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	nspecs := len(plan.Specs)
	if nspecs < 12 {
		t.Fatalf("behavior sweep too small: %d specs", nspecs)
	}

	baseRecs, err := campaign.Run(plan, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL, wantAgg := canonicalize(t, baseRecs)

	for _, workers := range []int{1, 8} {
		workers := workers
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(7000 + seed))
			cut := 1 + rng.Intn(nspecs)
			t.Run(fmt.Sprintf("cancel/workers=%d/cut=%d", workers, cut), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out.jsonl")
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sink := newArchive(t, path, nil)
				hook := CancelAfter(cut, cancel)
				_, err := campaign.RunContext(ctx, plan, campaign.Options{
					Workers: workers,
					Grace:   -1,
					OnRecord: func(rec campaign.RunRecord) {
						hook(rec)
						sink.Record(rec)
					},
				})
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				resumeAndCheck(t, plan, workers, path, wantJSONL, wantAgg)
			})
		}
	}
}

// TestCancelBeforeDispatchRunsNothing pins the degenerate interrupt point:
// a context canceled before RunContext is even called dispatches nothing,
// and the resume plan is the entire campaign.
func TestCancelBeforeDispatchRunsNothing(t *testing.T) {
	plan := invariantPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, err := campaign.RunContext(ctx, plan, campaign.Options{
		Workers: 4,
		Execute: stubExec,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(recs) != 0 {
		t.Fatalf("pre-canceled campaign ran %d specs, want 0", len(recs))
	}
	rest := plan.Remaining(campaign.DoneSet(recs))
	if len(rest.Specs) != len(plan.Specs) {
		t.Fatalf("resume plan %d specs, want the full %d", len(rest.Specs), len(plan.Specs))
	}
}
