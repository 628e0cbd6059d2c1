package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
)

// completion is one record's arrival at the sink, in arrival order.
type completion struct {
	at  time.Time
	key campaign.CellKey
}

// round is one campaign.RunContext call over a part's plan whose
// observations stream into a binary archive, wired the way
// `campaign -archive x.bin` wires it but without periodic fsync.
type round struct {
	recs      []campaign.RunRecord
	start     time.Time
	wall, cpu time.Duration
	done      []completion
}

func runRound(ctx context.Context, plan *campaign.Plan, horizon time.Duration, retry core.RetryPolicy, path string) (*round, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sink := campaign.NewObservationSink(archival.NewWriter(f, archival.FormatBinary))
	sink.SyncEvery(0)
	r := &round{done: make([]completion, 0, len(plan.Specs))}
	var mu sync.Mutex
	opts := campaign.Options{Workers: poolWorkers, Horizon: horizon, Retry: retry,
		OnRecord: func(rec campaign.RunRecord) {
			sink.Record(rec)
			mu.Lock()
			r.done = append(r.done, completion{time.Now(), rec.CellKey()})
			mu.Unlock()
		}}
	cpu0 := selfCPU()
	r.start = time.Now()
	r.recs, err = campaign.RunContext(ctx, plan, opts)
	r.wall = time.Since(r.start)
	r.cpu = selfCPU() - cpu0
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return r, f.Close()
}

// roundPath names the archive of round n's part i. Every round writes new
// files that are removed once read back: truncating or deleting a file whose
// blocks have reached the disk can take tens of milliseconds on filesystems
// mounted with discard, while deleting one still in the page cache is cheap.
func roundPath(dir string, n, i int) string {
	return filepath.Join(dir, fmt.Sprintf("round-%d-%d.bin", n, i))
}

// runLatencies derives each run's wall latency from the completion times.
// The pool hands specs to workers in plan order and a worker takes its next
// spec as soon as its previous record is written, so the k-th completion
// (0-based) is when spec poolWorkers+k started.
func (r *round) runLatencies(index map[campaign.CellKey]int) []float64 {
	out := make([]float64, 0, len(r.done))
	for _, c := range r.done {
		start := r.start
		if j := index[c.key]; j >= poolWorkers {
			start = r.done[j-poolWorkers].at
		}
		out = append(out, ms(c.at.Sub(start)))
	}
	return out
}

// specIndex maps every spec's result identity to its plan position.
func specIndex(plan *campaign.Plan) map[campaign.CellKey]int {
	m := make(map[campaign.CellKey]int, len(plan.Specs))
	for _, s := range plan.Specs {
		m[s.CellKey()] = s.Index
	}
	return m
}

// marshalAll renders records as the JSONL lines every sink and the service
// emit, so two record sets compare byte for byte.
func marshalAll(recs []campaign.RunRecord) ([][]byte, [32]byte, error) {
	lines := make([][]byte, len(recs))
	h := sha256.New()
	for i, rec := range recs {
		line, err := archival.MarshalLine(rec)
		if err != nil {
			return nil, [32]byte{}, err
		}
		lines[i] = line
		h.Write(line)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return lines, sum, nil
}

// readArchive reads a binary archive back and folds each run's contiguous
// rows into its record, returning the records in file order and the file
// size.
func readArchive(path string) ([]campaign.RunRecord, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	rd, err := archival.NewReader(f, archival.TailStrict, nil)
	if err != nil {
		return nil, 0, err
	}
	var recs []campaign.RunRecord
	var group []archival.Observation
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		rec, err := campaign.UnflattenRecord(group)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		group = group[:0]
		return nil
	}
	for {
		o, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if len(group) > 0 && o.Run != group[0].Run {
			if err := flush(); err != nil {
				return nil, 0, err
			}
		}
		group = append(group, o)
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return recs, st.Size(), nil
}

// countMismatches compares read-back records against the expected lines of
// a plan-ordered record set and returns how many expected records are
// missing or differ.
func countMismatches(got []campaign.RunRecord, want [][]byte, index map[campaign.CellKey]int) (int, error) {
	seen := make([]bool, len(want))
	bad := 0
	for _, rec := range got {
		i, ok := index[rec.CellKey()]
		if !ok || seen[i] {
			bad++
			continue
		}
		line, err := archival.MarshalLine(rec)
		if err != nil {
			return 0, err
		}
		seen[i] = true
		if !bytes.Equal(line, want[i]) {
			bad++
		}
	}
	for _, s := range seen {
		if !s {
			bad++
		}
	}
	return bad, nil
}

// batchPart is one part of a batch workload across rounds: its plan, and
// the records its first round returned, which every later round must
// reproduce.
type batchPart struct {
	plan   *campaign.Plan
	retry  core.RetryPolicy
	index  map[campaign.CellKey]int
	want   [][]byte
	digest [32]byte
}

// runBatch measures a batch workload: rounds of the workload's parts until
// the time budget is spent, each followed by one set-up launch in a fresh
// process. Launching between rounds samples set-up time across the whole
// run, not only in the state the host is in when the run starts. Every
// round must reproduce the first round's records byte for byte, and every
// round's archives must read back to the records RunContext returned.
func runBatch(ctx context.Context, p Params, sh shape, dir string) (Result, error) {
	res := newResult()
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	plans, err := sh.plans(p.Seed, p.Tiny)
	if err != nil {
		return res, err
	}
	parts := make([]*batchPart, len(plans))
	for i, plan := range plans {
		parts[i] = &batchPart{plan: plan, retry: sh.parts[i].retry, index: specIndex(plan)}
	}
	var rates, cpus, reads, p50s, p90s, setups []float64
	budget := time.Duration(p.Seconds * float64(time.Second))
	var spent time.Duration
	for n := 0; n < 2 || spent < budget; n++ {
		var runs int
		var wall, cpu, readTime time.Duration
		var size int64
		var lats []float64
		var first []campaign.RunRecord
		for i, bp := range parts {
			path := roundPath(dir, n, i)
			r, err := runRound(ctx, bp.plan, sh.horizon, bp.retry, path)
			if err != nil {
				return res, err
			}
			runs += len(r.recs)
			wall += r.wall
			cpu += r.cpu
			lats = append(lats, r.runLatencies(bp.index)...)

			t0 := time.Now()
			back, sz, err := readArchive(path)
			if err != nil {
				return res, err
			}
			readTime += time.Since(t0)
			size += sz
			if err := os.Remove(path); err != nil {
				return res, err
			}
			if n == 0 {
				first = append(first, r.recs...)
			}
			if err := bp.check(&res, n, i, r.recs, back); err != nil {
				return res, err
			}
		}
		if n == 0 {
			checkBatchRecords(&res, p.Workload, first)
		}
		spent += wall
		res.Attempted += int64(runs)
		rates = append(rates, float64(runs)/wall.Seconds())
		cpus = append(cpus, ms(cpu)/float64(runs))
		p50s = append(p50s, quantile(lats, 0.50))
		p90s = append(p90s, quantile(lats, 0.90))
		reads = append(reads, float64(size)/(1<<20)/readTime.Seconds())

		d, err := launchSetup(ctx, exe, p, dir, n)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return res, err
	}
	res.set("runs_per_s", bestQuarter(rates, true))
	res.set("cpu_ms_per_run", bestQuarter(cpus, false))
	res.set("peak_rss_mb", rss)
	res.set("archive_read_mb_s", bestQuarter(reads, true))
	res.set("setup_s", median(setups))
	res.set("req_p50_ms", bestQuarter(p50s, false))
	res.set("req_p90_ms", bestQuarter(p90s, false))
	if res.Failed > 0 {
		res.fail("%d of %d runs failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// check verifies round n of the part: round 0 fixes the expected records,
// every later round must hash to them, and the archive read back must hold
// exactly the records RunContext returned. Error records and archive
// mismatches count as failed runs.
func (bp *batchPart) check(res *Result, n, i int, recs, back []campaign.RunRecord) error {
	lines, sum, err := marshalAll(recs)
	if err != nil {
		return err
	}
	if n == 0 {
		bp.want, bp.digest = lines, sum
	} else if sum != bp.digest {
		res.fail("round %d part %d: records differ from round 0 (sha256 %x vs %x)", n, i, sum[:8], bp.digest[:8])
	}
	bad, err := countMismatches(back, bp.want, bp.index)
	if err != nil {
		return err
	}
	if bad > 0 {
		res.fail("round %d part %d: %d archived records differ from the returned records", n, i, bad)
	}
	for _, rec := range recs {
		if rec.Error != "" {
			res.Failed++
		}
	}
	res.Failed += int64(bad)
	return nil
}

// checkBatchRecords applies the paper's two-sided claim to a workload's
// records. Against the faithful censor on a pristine link every verdict must
// be correct, and on the non-adversarial workloads no stealth run may be
// flagged while overt runs are.
func checkBatchRecords(res *Result, workload string, recs []campaign.RunRecord) {
	var wrong, stealthFlagged, overtFlagged int
	for _, rec := range recs {
		if rec.Error != "" {
			continue // counted as failed by the caller
		}
		if rec.Impairment == "" && rec.Behavior == "" && !rec.Correct {
			wrong++
		}
		switch {
		case rec.Flagged && rec.Stealth:
			stealthFlagged++
		case rec.Flagged:
			overtFlagged++
		}
	}
	if wrong > 0 {
		res.fail("%d faithful-censor, pristine-link runs got a wrong verdict", wrong)
	}
	if workload == "adversarial" {
		return
	}
	if stealthFlagged > 0 {
		res.fail("%d stealth runs were flagged by the analyst", stealthFlagged)
	}
	if overtFlagged == 0 {
		res.fail("no overt run was flagged: the surveillance side saw nothing")
	}
}

// launchSetup runs set-up launch n: the set-up probe (FirstResult) in a
// fresh process, timed from launch to the first archived record. How long
// the first run takes depends on its seed, so each launch plans with its own
// seed derived from the workload seed, and the median covers many first runs
// rather than one.
func launchSetup(ctx context.Context, exe string, p Params, dir string, n int) (time.Duration, error) {
	args := []string{"first-result", "-workload", p.Workload,
		"-seed", itoa(p.Seed*setupSeeds + int64(n%setupSeeds)), "-dir", dir}
	if p.Tiny {
		args = append(args, "-tiny")
	}
	d, err := timeFirstLine(ctx, exe, args)
	if err != nil {
		return 0, fmt.Errorf("bench: set-up probe: %w", err)
	}
	return d, nil
}

// timeFirstLine starts a command and returns how long it took to print its
// first line; it then waits for the command to exit.
func timeFirstLine(ctx context.Context, exe string, args []string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	br := bufio.NewReader(out)
	_, rerr := br.ReadString('\n')
	elapsed := time.Since(start)
	_, _ = io.Copy(io.Discard, br) // drain so Wait cannot race a late write
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil {
		return 0, fmt.Errorf("no output line: %w", rerr)
	}
	return elapsed, nil
}

// FirstResult is the set-up probe: it plans the workload's first part,
// starts the campaign with the archive sink exactly as a batch round does,
// prints one line when the first record has been archived, and stops the
// campaign.
func FirstResult(args []string) error {
	fs := flag.NewFlagSet("first-result", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", "", "directory for the archive")
	tiny := fs.Bool("tiny", false, "tiny plan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sh, ok := shapes[*workload]
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", *workload)
	}
	pt := sh.parts[0]
	plan, err := pt.plan(*seed, *tiny)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(*dir, "first-*.bin")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	sink := campaign.NewObservationSink(archival.NewWriter(f, archival.FormatBinary))
	sink.SyncEvery(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = campaign.RunContext(ctx, plan, campaign.Options{Workers: poolWorkers,
		Horizon: sh.horizon, Retry: pt.retry,
		OnRecord: func(rec campaign.RunRecord) {
			sink.Record(rec)
			once.Do(func() {
				fmt.Println("first-result")
				cancel()
			})
		}})
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return sink.Flush()
}
