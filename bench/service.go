package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"safemeasure/internal/archival"
	"safemeasure/internal/campaign"
	"safemeasure/internal/core"
)

// Service workload shape: an open loop at openRate requests/s over two
// connections, requestTrials runs per request, client IDs rotating through
// serviceClients so each stays far below the default 64 req/s per-client
// limit.
const (
	openRate       = 250.0
	requestTrials  = 2
	serviceClients = 16
	// capacityClients spreads the closed-loop phase over enough client IDs
	// that the per-client limit holds up to about 4,000 requests/s.
	capacityClients = 64
	// openShare of the run's seconds goes to the open loop; the rest to the
	// closed-loop capacity phase. Each phase is cut into windows whose
	// best quarter is reported (see bestQuarter).
	openShare      = 0.5
	openWindow     = 500 * time.Millisecond
	capacityWindow = 500 * time.Millisecond
	// p90LimitMS is the latency limit on the open loop's p90. A run whose
	// generator issued requests later than this (at its p99) measured the
	// generator rather than the service, and is invalid.
	p90LimitMS = 10.0
	// archiveReads is how many times the service's archive is read back;
	// one read of its ~19 MB takes about 50 ms.
	archiveReads = 16
	// signalSettle is how long a set-up launch stays up after turning ready
	// before it is drained.
	signalSettle = 50 * time.Millisecond
)

// Request kinds of the open-loop mix.
const (
	kindFresh  = iota // 70%: a seed nobody asked for before
	kindRepeat        // 20%: an earlier request's identity (cache hit or dedupe join)
	kindWarm          // 10%: a cell the service warm-started from its archive
)

// request is one /measure call of the load.
type request struct {
	cell   [2]string
	seed   int64
	client string
	kind   int
}

func (r request) identity() string { return fmt.Sprintf("%s|%s|%d", r.cell[0], r.cell[1], r.seed) }

func (r request) url(base string) string {
	return fmt.Sprintf("%s/measure?technique=%s&scenario=%s&trials=%d&seed=%d&client=%s",
		base, r.cell[0], r.cell[1], requestTrials, r.seed, r.client)
}

// response is one request's outcome.
type response struct {
	req     request
	body    []byte
	err     error
	at      time.Duration // due time (open loop) or completion (closed loop), from the phase start
	latency time.Duration // from the due time (open loop) or send time
	late    time.Duration // how late the generator issued it
}

// Seeds: the warm plan uses an odd seed and fresh requests even ones, so a
// fresh request can never hit the warm-started cache.
func warmSeed(seed int64) int64     { return 2*seed + 1 }
func freshSeed(seed, i int64) int64 { return 2 * (seed*10_000_000 + i + 1) }

// openLoopRequests builds the open-loop mix for a seed. Kinds and cells
// interleave in a fixed pattern (of every ten requests, seven fresh, two
// repeats, one warm; fresh and warm requests cycle through the cells), so
// every window of the loop carries the same mix; the seed picks the run
// seeds and which earlier request each repeat repeats.
func openLoopRequests(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	var fresh, warm int
	for i := range out {
		r := request{client: fmt.Sprintf("bench-%02d", i%serviceClients)}
		switch slot := i % 10; {
		case slot < 7 || i == 0:
			r.kind, r.cell, r.seed = kindFresh, mixCells[fresh%len(mixCells)], freshSeed(seed, int64(i))
			fresh++
		case slot < 9:
			prev := out[rng.Intn(i)]
			r.kind, r.cell, r.seed = kindRepeat, prev.cell, prev.seed
		default:
			r.kind, r.cell, r.seed = kindWarm, mixCells[warm%len(mixCells)], warmSeed(seed)
			warm++
		}
		out[i] = r
	}
	return out
}

// serviceProc is one running safemeasured.
type serviceProc struct {
	cmd      *exec.Cmd
	base     string
	archive  string
	journal  string
	waitDone chan struct{}
	waitErr  error
}

// launchService copies the warm archive to new files named by launch n
// (see roundPath for why files are never reused), starts safemeasured on it
// with a fresh journal, and returns once /readyz answers 200, along with the
// time from launch to ready.
func launchService(ctx context.Context, bin, dir, warm string, n int) (*serviceProc, time.Duration, error) {
	s := &serviceProc{archive: filepath.Join(dir, fmt.Sprintf("service-%d.bin", n)),
		journal: filepath.Join(dir, fmt.Sprintf("service-%d.wal", n)), waitDone: make(chan struct{})}
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", n))
	if err := copyFile(warm, s.archive); err != nil {
		return nil, 0, err
	}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", itoa(poolWorkers), "-journal", s.journal, "-archive", s.archive,
		"-journal-fsync=false")
	var stderr bytes.Buffer
	s.cmd.Stderr = &stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.waitDone)
	}()
	httpc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if s.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				s.base = "http://" + string(raw)
			}
		}
		if s.base != "" {
			if resp, err := httpc.Get(s.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		select {
		case <-s.waitDone:
			return nil, 0, fmt.Errorf("safemeasured exited before ready: %v: %s", s.waitErr, stderr.String())
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("safemeasured not ready after 60s: %s", stderr.String())
		}
	}
}

// stop sends SIGTERM and waits for the drain; a clean drain exits 0.
func (s *serviceProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.waitDone:
		return s.waitErr
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("safemeasured did not drain within 60s")
	}
}

// kill stops the process without a drain and waits for it.
func (s *serviceProc) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waitDone
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fetch performs one /measure request and returns the full body; a non-200
// status or a body without the terminal aggregate frame is an error.
func fetch(ctx context.Context, httpc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if n := bytes.Count(body, []byte("\n")); n != requestTrials+1 ||
		!bytes.Contains(body[bytes.LastIndexByte(body[:len(body)-1], '\n')+1:], []byte(`"aggregate"`)) {
		return nil, fmt.Errorf("malformed response: %q", body)
	}
	return body, nil
}

// openLoop issues each request at its due time (rate per second, from the
// start) regardless of how earlier ones fare, and times each from its due
// time, so a stall also counts against the requests queued behind it. It
// calls tick just before the first request of every openWindow and once
// more after the last response.
func openLoop(ctx context.Context, httpc *http.Client, base string, reqs []request, rate float64, tick func()) []response {
	out := make([]response, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, r := range reqs {
		offset := time.Duration(float64(i) / rate * float64(time.Second))
		due := start.Add(offset)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if i%int(rate*openWindow.Seconds()) == 0 {
			tick()
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, r request, due time.Time, late time.Duration) {
			defer wg.Done()
			body, err := fetch(ctx, httpc, r.url(base))
			out[i] = response{req: r, body: body, err: err, at: offset, latency: time.Since(due), late: late}
		}(i, r, due, late)
	}
	wg.Wait()
	tick()
	return out
}

// closedLoop keeps poolWorkers connections busy with fresh requests for d and
// returns every response: the service's capacity at this request shape.
func closedLoop(ctx context.Context, httpc *http.Client, base string, seed, firstID int64, d time.Duration) []response {
	var mu sync.Mutex
	var out []response
	next := firstID
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < poolWorkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				id := next
				next++
				mu.Unlock()
				r := request{kind: kindFresh, cell: mixCells[id%int64(len(mixCells))],
					seed: freshSeed(seed, id), client: fmt.Sprintf("bench-cap-%02d", id%capacityClients)}
				t0 := time.Now()
				body, err := fetch(ctx, httpc, r.url(base))
				mu.Lock()
				out = append(out, response{req: r, body: body, err: err, at: time.Since(start), latency: time.Since(t0)})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// scrape fetches /metrics and returns the unlabeled series by name.
func scrape(httpc *http.Client, base string) (map[string]float64, error) {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v float64
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// warmArchive runs the E11 matrix at 1,000 trials (21,000 runs) into a
// binary archive, the file every service launch warm-starts from, and
// returns its records by result identity and how many there are.
func warmArchive(ctx context.Context, p Params, path string) (map[campaign.CellKey][]byte, int, error) {
	plan, err := campaign.NewPlan(campaign.PlanConfig{Trials: pick(p.Tiny, 2, 1000), Seed: warmSeed(p.Seed)})
	if err != nil {
		return nil, 0, err
	}
	r, err := runRound(ctx, plan, campaign.DefaultHorizon, core.RetryPolicy{}, path)
	if err != nil {
		return nil, 0, err
	}
	lines, _, err := marshalAll(r.recs)
	if err != nil {
		return nil, 0, err
	}
	want := make(map[campaign.CellKey][]byte, len(lines))
	for i, rec := range r.recs {
		if rec.Error != "" {
			return nil, 0, fmt.Errorf("bench: warm run failed: %s", rec.Error)
		}
		want[rec.CellKey()] = lines[i]
	}
	return want, len(plan.Specs), nil
}

// expectFresh computes, in process, the records every fresh request's runs
// must carry, adds them to want by result identity, and returns how many
// distinct runs that is.
func expectFresh(ctx context.Context, reqs []request, want map[campaign.CellKey][]byte) (int, error) {
	all := &campaign.Plan{}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.kind != kindFresh || seen[r.identity()] {
			continue
		}
		seen[r.identity()] = true
		p, err := campaign.NewPlan(campaign.PlanConfig{Techniques: []string{r.cell[0]},
			Scenarios: []string{r.cell[1]}, Trials: requestTrials, Seed: r.seed})
		if err != nil {
			return 0, err
		}
		for _, s := range p.Specs {
			s.Index = len(all.Specs)
			all.Specs = append(all.Specs, s)
		}
	}
	if len(all.Specs) == 0 {
		return 0, nil
	}
	recs, err := campaign.RunContext(ctx, all, campaign.Options{Workers: poolWorkers})
	if err != nil {
		return 0, err
	}
	lines, _, err := marshalAll(recs)
	if err != nil {
		return 0, err
	}
	for i, rec := range recs {
		want[rec.CellKey()] = lines[i]
	}
	return len(recs), nil
}

// checkResponses verifies every response: each record line must equal the
// in-process record for its identity, and repeated identities must return
// byte-identical bodies. It returns how many responses failed.
func checkResponses(res *Result, resps []response, want map[campaign.CellKey][]byte) int64 {
	var failed int64
	bodies := map[string][32]byte{}
	for _, r := range resps {
		if r.err != nil {
			failed++
			res.fail("request %s: %v", r.req.identity(), r.err)
			continue
		}
		sum := sha256.Sum256(r.body)
		if prev, ok := bodies[r.req.identity()]; ok && prev != sum {
			failed++
			res.fail("request %s: repeated identity returned different bytes", r.req.identity())
			continue
		}
		bodies[r.req.identity()] = sum
		lines := bytes.SplitAfter(r.body, []byte("\n"))
		for trial := 0; trial < requestTrials; trial++ {
			var rec campaign.RunRecord
			if err := json.Unmarshal(lines[trial], &rec); err != nil || !bytes.Equal(lines[trial], want[rec.CellKey()]) {
				failed++
				res.fail("request %s: trial %d record differs from the in-process run", r.req.identity(), trial)
				break
			}
		}
	}
	return failed
}

// serviceCounters are the service-layer numbers a traced run reports.
type serviceCounters struct {
	hits, joins, misses float64
	warmed              float64
	journalBytes        int64
	requests            int
}

// runService measures the service-open workload end to end.
func runService(ctx context.Context, p Params, dir string) (Result, error) {
	res, _, err := measureService(ctx, p, dir)
	return res, err
}

// measureService runs the service-open workload. The warm archive is built
// first and not timed; set-up time is the median launch-to-ready time of
// several launches on it; the last launch then takes the open-loop load and
// the closed-loop capacity phase before a SIGTERM drain. Everything after the
// drain is untimed verification against in-process runs.
func measureService(ctx context.Context, p Params, dir string) (Result, serviceCounters, error) {
	res := newResult()
	var sc serviceCounters
	warmPath := filepath.Join(dir, "warm.bin")
	want, warmRuns, err := warmArchive(ctx, p, warmPath)
	if err != nil {
		return res, sc, err
	}
	svc, setup, err := launchRepeatedly(ctx, p, dir, warmPath)
	if err != nil {
		return res, sc, err
	}
	defer func() {
		if svc != nil {
			svc.kill()
		}
	}()
	httpc := &http.Client{Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: poolWorkers,
		MaxIdleConnsPerHost: poolWorkers, DisableCompression: true}}
	defer httpc.CloseIdleConnections()

	before, err := scrape(httpc, svc.base)
	if err != nil {
		return res, sc, err
	}
	sc.warmed = before["measured_cache_warmed_total"]
	if int(sc.warmed) != warmRuns {
		res.fail("warm start loaded %v records, want %d", sc.warmed, warmRuns)
	}
	openDur := time.Duration(p.Seconds * openShare * float64(time.Second))
	reqs := openLoopRequests(p.Seed, int(openRate*openDur.Seconds()))
	pid := svc.cmd.Process.Pid
	var cpuMarks []time.Duration
	var cpuErr error
	open := openLoop(ctx, httpc, svc.base, reqs, openRate, func() {
		c, err := procCPU(pid)
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		cpuMarks = append(cpuMarks, c)
	})
	if cpuErr != nil {
		return res, sc, cpuErr
	}
	after, err := scrape(httpc, svc.base)
	if err != nil {
		return res, sc, err
	}
	sc.hits = after["measured_cache_hits_total"] - before["measured_cache_hits_total"]
	sc.joins = after["measured_dedup_joins_total"] - before["measured_dedup_joins_total"]
	sc.misses = after["measured_cache_misses_total"] - before["measured_cache_misses_total"]
	capDur := time.Duration(p.Seconds*float64(time.Second)) - openDur
	capacity := closedLoop(ctx, httpc, svc.base, p.Seed, int64(len(reqs)), capDur)
	rss, err := peakRSSMB(pid)
	if err != nil {
		return res, sc, err
	}
	archivePath, journalPath := svc.archive, svc.journal
	stopErr := svc.stop()
	svc = nil
	if stopErr != nil {
		res.fail("SIGTERM drain did not exit cleanly: %v", stopErr)
	}
	if st, err := os.Stat(journalPath); err == nil {
		sc.journalBytes = st.Size()
	}
	sc.requests = len(open) + len(capacity)

	var lats, lates []float64
	for _, r := range open {
		lats = append(lats, ms(r.latency))
		lates = append(lates, ms(r.late))
	}
	p50s, p90s, cpus := openWindows(open, cpuMarks)
	fresh, err := expectFresh(ctx, append(append([]request(nil), reqs...), requestsOf(capacity)...), want)
	if err != nil {
		return res, sc, err
	}
	res.Attempted = int64(sc.requests)
	res.Failed = checkResponses(&res, open, want) + checkResponses(&res, capacity, want)
	// p99 and generator lateness are reported but not gated: p99 moves by a
	// quarter from run to run.
	p99 := quantile(lats, 0.99)
	lateP50, lateP99 := quantile(lates, 0.50), quantile(lates, 0.99)
	fmt.Fprintf(os.Stderr, "smbench: service-open: %d open-loop requests: p99 %.3f ms (%d beyond it); generator lateness p50 %.3f ms, p99 %.3f ms\n",
		len(lats), p99, len(lats)/100, lateP50, lateP99)
	if lateP99 > p90LimitMS {
		res.fail("generator ran late: lateness p99 %.3f ms exceeds the %.0f ms p90 limit", lateP99, p90LimitMS)
	}
	reads, err := checkServiceArchive(&res, archivePath, want, warmRuns+fresh)
	if err != nil {
		return res, sc, err
	}
	res.set("runs_per_s", bestQuarter(capacityWindows(capacity, capDur), true))
	res.set("cpu_ms_per_run", bestQuarter(cpus, false))
	res.set("peak_rss_mb", rss)
	res.set("archive_read_mb_s", reads)
	res.set("setup_s", setup)
	res.set("req_p50_ms", bestQuarter(p50s, false))
	res.set("req_p90_ms", bestQuarter(p90s, false))
	return res, sc, nil
}

// openWindows cuts the open loop into its full openWindow windows by due
// time and returns each window's latency p50 and p90 and the service CPU
// per run served (marks[k] is the service's CPU time as window k began).
// A run too short for one full window counts as one window.
func openWindows(open []response, marks []time.Duration) (p50s, p90s, cpus []float64) {
	n := max(1, int(time.Duration(len(open))*time.Second/time.Duration(openRate)/openWindow))
	lats := make([][]float64, n)
	for _, r := range open {
		if k := int(r.at / openWindow); k < n {
			lats[k] = append(lats[k], ms(r.latency))
		}
	}
	for k, l := range lats {
		p50s = append(p50s, quantile(l, 0.50))
		p90s = append(p90s, quantile(l, 0.90))
		if k+1 < len(marks) && len(l) > 0 {
			cpus = append(cpus, ms(marks[k+1]-marks[k])/float64(requestTrials*len(l)))
		}
	}
	return p50s, p90s, cpus
}

// capacityWindows returns the runs served per second in each full window
// of the closed-loop phase: completions after a window's first, over the
// time from its first to its last completion.
func capacityWindows(resps []response, d time.Duration) []float64 {
	n := max(1, int(d/capacityWindow))
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	counts := make([]int, n)
	for _, r := range resps {
		k := int(r.at / capacityWindow)
		if k >= n {
			continue
		}
		if counts[k] == 0 || r.at < first[k] {
			first[k] = r.at
		}
		last[k] = max(last[k], r.at)
		counts[k]++
	}
	var out []float64
	for k, c := range counts {
		if c > 1 && last[k] > first[k] {
			out = append(out, float64(requestTrials*(c-1))/(last[k]-first[k]).Seconds())
		}
	}
	return out
}

func requestsOf(resps []response) []request {
	out := make([]request, len(resps))
	for i, r := range resps {
		out[i] = r.req
	}
	return out
}

// launchRepeatedly launches the service serviceSetupLaunches times on fresh copies
// of the warm archive, drains all but the last, and returns the last one with
// the median launch-to-ready time.
func launchRepeatedly(ctx context.Context, p Params, dir, warm string) (*serviceProc, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		svc, d, err := launchService(ctx, p.Safemeasured, dir, warm, i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == serviceSetupLaunches-1 {
			return svc, median(times), nil
		}
		// safemeasured installs its SIGTERM handler just after it starts
		// serving, so /readyz can answer before a SIGTERM would drain; give
		// the handler time to go in.
		time.Sleep(signalSettle)
		if err := svc.stop(); err != nil {
			return nil, 0, fmt.Errorf("bench: drain after launch %d: %w", i, err)
		}
		for _, f := range []string{svc.archive, svc.journal} {
			if err := os.Remove(f); err != nil {
				return nil, 0, err
			}
		}
	}
}

// checkServiceArchive reads the service's archive back archiveReads times
// and returns the best quarter of the read rates (see bestQuarter). The
// archive must hold each warm record and each fresh run the load caused
// exactly once, byte-identical to the in-process runs.
func checkServiceArchive(res *Result, path string, want map[campaign.CellKey][]byte, runs int) (float64, error) {
	var rates []float64
	for i := 0; i < archiveReads; i++ {
		t0 := time.Now()
		recs, size, err := readArchive(path)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(size)/(1<<20)/time.Since(t0).Seconds())
		if i > 0 {
			continue
		}
		bad := 0
		for _, rec := range recs {
			line, err := archival.MarshalLine(rec)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(line, want[rec.CellKey()]) {
				bad++
			}
		}
		if bad > 0 {
			res.fail("%d of %d archived service records differ from the in-process runs", bad, len(recs))
		}
		if len(recs) != runs {
			res.fail("service archive holds %d records, want %d (warm start plus each fresh run once)", len(recs), runs)
		}
	}
	return bestQuarter(rates, true), nil
}
