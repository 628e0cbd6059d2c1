package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the runner and agree read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root.
func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// series is one metric across the runs of a result set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// workloadSet is one workload's results: the untraced runs' end-to-end
// series and the traced run's per-layer metrics.
type workloadSet struct {
	EndToEnd map[string]*series `json:"end_to_end"`
	PerLayer map[string]Metric  `json:"per_layer"`
}

// microResult is one in-package Go benchmark.
type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// resultSet is what `smbench run` writes and `smbench agree` compares.
type resultSet struct {
	Seconds   int                     `json:"seconds"`
	Runs      int                     `json:"runs"`
	Seed      int64                   `json:"seed"`
	Workloads map[string]*workloadSet `json:"workloads"`
	Micro     map[string]microResult  `json:"micro"`
}

// inPackage lists the layer benchmarks that live in the packages' own test
// files; the runner records them by name with `go test -bench`.
var inPackage = []struct {
	pkg   string
	names []string
}{
	{"./internal/packet", []string{"ParseTCP", "IPv4Marshal"}},
	{"./internal/dnswire", []string{"MarshalResponse", "ParseResponse"}},
	{"./internal/ids", []string{"EngineFeedClean"}},
	{"./internal/netsim", []string{"ForwardingPath"}},
	{"./internal/tcpsim", []string{"ConnectSendClose"}},
	{"./internal/archival", []string{"EncodeBinary", "DecodeBinary", "EncodeJSONL", "DecodeJSONL"}},
}

// Runner implements `smbench run`: every workload in BENCHMARK.json runs
// -runs times untraced and once traced, each in a fresh process, the
// in-package layer benchmarks run once, and the medians are written as a
// result set.
func Runner(ctx context.Context, root, safemeasured string, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "untraced runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	out := fs.String("out", filepath.Join(root, "bench", "out", "results.json"), "result set to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("bench: -runs must be >= 1")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Seconds: spec.RunSeconds, Runs: *runs, Seed: *seed, Workloads: map[string]*workloadSet{}}
	for _, w := range spec.Workloads {
		ws := &workloadSet{EndToEnd: map[string]*series{}}
		for i := 0; i <= *runs; i++ {
			trace := i == *runs
			res, err := runChild(ctx, exe, root, safemeasured, w.Name, *seed+int64(i%*runs), spec.RunSeconds, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if trace {
				ws.PerLayer = res.Metrics
				continue
			}
			for name, m := range res.Metrics {
				s := ws.EndToEnd[name]
				if s == nil {
					s = &series{Unit: m.Unit}
					ws.EndToEnd[name] = s
				}
				s.Values = append(s.Values, m.Value)
				s.Median = median(s.Values)
			}
		}
		set.Workloads[w.Name] = ws
		fmt.Fprintf(os.Stderr, "smbench: %s done\n", w.Name)
	}
	if set.Micro, err = runInPackage(ctx, root); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(*out, append(raw, '\n'), 0o644)
}

// runChild runs one workload in a fresh smbench process and parses the
// result line; a run whose checks failed is an error.
func runChild(ctx context.Context, exe, root, safemeasured, workload string, seed int64, seconds int, trace bool) (Result, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-root", root, "-safemeasured", safemeasured,
		"--workload", workload, "--seed", itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", tr)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res Result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return res, fmt.Errorf("seed %d: no result line (%v): %w", seed, err, jerr)
	}
	if err != nil || !res.Correct {
		return res, fmt.Errorf("seed %d: run failed its checks (%v)", seed, err)
	}
	return res, nil
}

// runInPackage runs the in-package layer benchmarks and parses ns/op, B/op
// and allocs/op for each.
func runInPackage(ctx context.Context, root string) (map[string]microResult, error) {
	out := map[string]microResult{}
	for _, p := range inPackage {
		cmd := exec.CommandContext(ctx, "go", "test", "-run", "^$", "-benchmem",
			"-bench", "^Benchmark("+strings.Join(p.names, "|")+")$", p.pkg)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %w", p.pkg, err)
		}
		if err := parseGoBench(bytes.NewReader(raw), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseGoBench reads `go test -bench -benchmem` output lines such as
// "BenchmarkParseTCP-2  5000000  234.5 ns/op  96 B/op  2 allocs/op".
func parseGoBench(r io.Reader, out map[string]microResult) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		var m microResult
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		out[name] = m
	}
	return sc.Err()
}

// loadResultSet reads a result set written by `smbench run`.
func loadResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// Agree compares two result sets metric by metric: each gated end-to-end
// metric's medians must lie within the metric's bound of each other,
// relative to set A. It writes one line per pair and returns an error naming
// every pair that disagrees.
func Agree(root, pathA, pathB string, w io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	var bad []string
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			bad = append(bad, wl.Name+": missing from a result set")
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				bad = append(bad, fmt.Sprintf("%s %s: missing from a result set", wl.Name, m.Name))
				continue
			}
			diff := math.Abs(sb.Median-sa.Median) / sa.Median
			verdict := "agree"
			if !(diff <= m.Bound) {
				verdict = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: %.4g vs %.4g (%.1f%% apart, bound %.0f%%)",
					wl.Name, m.Name, sa.Median, sb.Median, 100*diff, 100*m.Bound))
			}
			fmt.Fprintf(w, "%-13s %-18s %12.5g %12.5g %6.1f%% (bound %3.0f%%) %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*diff, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New("result sets disagree:\n  " + strings.Join(bad, "\n  "))
	}
	return nil
}
