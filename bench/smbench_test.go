package bench

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for smbench as the set-up probe
// that batch runs launch in fresh processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "first-result" {
		if err := FirstResult(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSpecMatchesRuns pins BENCHMARK.json to the metrics the runs report:
// the same names, in both directions, with the same units.
func TestSpecMatchesRuns(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, runs %v", names, workloads)
	}
	var e2e, per []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, runs report %q", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	for _, m := range spec.PerLayer {
		per = append(per, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, runs report %q", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	sort.Strings(per)
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end: BENCHMARK.json %v, runs %v", e2e, endToEnd)
	}
	if strings.Join(per, ",") != strings.Join(perLayer(), ",") {
		t.Errorf("per_layer: BENCHMARK.json %v, runs %v", per, perLayer())
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, through its correctness checks, and requires each run to report
// every metric BENCHMARK.json names for its kind, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	bin := filepath.Join(root, "safemeasured")
	if out, err := exec.Command("go", "build", "-o", bin, "safemeasure/cmd/safemeasured").CombinedOutput(); err != nil {
		t.Fatalf("build safemeasured: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(ctx, Params{Workload: w.Name, Seed: 3, Seconds: 0.1, Trace: trace,
				Tiny: true, Root: root, Safemeasured: bin})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Problems())
			}
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range spec.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSpanCoverage checks that only layer spans' self times count as
// covered, over the decomposed runs' time: glue between layer calls and the
// root and reference spans around the decomposed pass count for nothing.
func TestSpanCoverage(t *testing.T) {
	tr := &tracer{}
	add := func(parent int, name string, start, end int64) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Name: name, Start: start, End: end})
		return len(tr.spans) - 1
	}
	root := add(-1, "bench.run", 0, 1000)
	add(root, "bench.reference", 0, 300)
	add(root, "campaign.execute", 300, 600)
	dec := add(root, "bench.decomposed", 600, 1000)
	add(dec, "lab.new", 600, 700)
	add(dec, "core.schedule", 700, 760)
	add(dec, "netsim.run", 760, 800)
	add(dec, "archival.write", 900, 950)
	// Layer self time 100 + 60 + 40 + 50 = 250 of the decomposed 400; the gap
	// between 800 and 900 and the tail after 950 are uncovered.
	if got, want := tr.spanCoverage(), 250.0/400; got != want {
		t.Errorf("spanCoverage = %v, want %v", got, want)
	}
	// The replayed execute spans (lab.new, core.schedule, netsim.run: 200)
	// against campaign.execute (300); archival.write is not part of execute.
	if got, want := tr.decompGap(), 100.0/300; got != want {
		t.Errorf("decompGap = %v, want %v", got, want)
	}
}

// TestParseGoBench reads `go test -bench -benchmem` output, keeping each
// benchmark's name without the GOMAXPROCS suffix.
func TestParseGoBench(t *testing.T) {
	out := `goos: linux
pkg: safemeasure/internal/packet
BenchmarkParseTCP-2      	 5000000	       234.5 ns/op	      96 B/op	       2 allocs/op
BenchmarkIPv4Marshal     	 1000000	      1021 ns/op	     128 B/op	       1 allocs/op
PASS
ok  	safemeasure/internal/packet	3.1s
`
	got := map[string]microResult{}
	if err := parseGoBench(strings.NewReader(out), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]microResult{
		"ParseTCP":    {NsPerOp: 234.5, BytesPerOp: 96, AllocsPerOp: 2},
		"IPv4Marshal": {NsPerOp: 1021, BytesPerOp: 128, AllocsPerOp: 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parseGoBench = %v, want %v", got, want)
	}
}

// TestInPackageBenchmarksExist checks that every in-package benchmark the
// runner records is still declared in its package's tests, so a rename
// fails here rather than silently dropping out of the result set.
func TestInPackageBenchmarksExist(t *testing.T) {
	for _, p := range inPackage {
		files, err := filepath.Glob(filepath.Join("..", p.pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var src strings.Builder
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(raw)
		}
		for _, name := range p.names {
			if !strings.Contains(src.String(), "func Benchmark"+name+"(b *testing.B)") {
				t.Errorf("%s: no Benchmark%s", p.pkg, name)
			}
		}
	}
}

// TestAgree checks that agree accepts medians within a metric's bound and
// names the workload and metric of a pair outside it.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, median float64) string {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"workloads": {"w": {"end_to_end": {"runs_per_s": {"median": %g}}}}}`, median)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	if err := Agree(dir, set("a.json", 100), set("b.json", 109), &out); err != nil {
		t.Fatalf("9%% apart under a 10%% bound: %v", err)
	}
	err := Agree(dir, set("a.json", 100), set("c.json", 89), &out)
	if err == nil || !strings.Contains(err.Error(), "w runs_per_s") {
		t.Fatalf("11%% apart under a 10%% bound: got %v, want a disagreement naming w runs_per_s", err)
	}
}
