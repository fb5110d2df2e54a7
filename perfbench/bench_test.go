package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ pct, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(hundred, c.pct); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.pct, got, c.want)
		}
	}
	// Nearest rank never interpolates: p99 of 10 samples is the maximum.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("p99 of 10 samples = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestFailedFraction(t *testing.T) {
	if got := fraction(1, 14); got != 1.0/14 {
		t.Errorf("fraction(1, 14) = %v", got)
	}
	if got := fraction(0, 0); got != 0 {
		t.Errorf("fraction(0, 0) = %v, want 0", got)
	}
}

// TestModelErrHandComputed scores the EXPERIMENTS.md values against the
// paper: at printed precision the 16 differences sum to 13.68 s.
func TestModelErrHandComputed(t *testing.T) {
	var got, want []float64
	for _, r := range table2Refs {
		got = append(got, r.hotplug, r.linkup)
		want = append(want, r.pubHot, r.pubLinkup)
	}
	for _, r := range fig6Refs {
		got = append(got, r.migration, r.linkup)
		want = append(want, r.pubMigration, r.pubLinkup)
	}
	if len(got) != 16 {
		t.Fatalf("scored %d values, want 16", len(got))
	}
	if e := meanAbsErr(got, want); math.Abs(e-13.68/16) > 1e-9 {
		t.Errorf("model error = %v, want %v", e, 13.68/16)
	}
	if e := meanAbsErr([]float64{1, 5}, []float64{2, 2}); e != 2 {
		t.Errorf("meanAbsErr hand case = %v, want 2", e)
	}
	if e := meanAbsErr([]float64{1}, nil); !math.IsNaN(e) {
		t.Errorf("mismatched lengths = %v, want NaN", e)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", 0, 1, 1)
	child := tr.begin("sim.Kernel.Run", root, 1, 1)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.snapshot(), map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Cat != "sim" || doc.TraceEvents[1].Ph != "X" {
		t.Fatalf("trace events = %+v", doc.TraceEvents)
	}
	if p := doc.TraceEvents[1].Args["parent"]; p != float64(root) {
		t.Errorf("child parent = %v, want %d", p, root)
	}
	if doc.OtherData["workload"] != "test" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0, 0); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
	nilTracer.end(0)
}

// smoke runs a workload at reduced size, untraced and traced, and checks
// that outputs pass and every metric is printed (end-to-end ones non-zero).
func smoke(t *testing.T, cfg config) {
	t.Helper()
	cfg.small = true
	cfg.budget = time.Nanosecond // the minimum number of passes
	cfg.work = t.TempDir()
	out, err := runners[cfg.workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.errs) > 0 || out.attempted < 1 {
		t.Fatalf("checks failed (attempted %d): %v", out.attempted, out.errs)
	}
	for _, d := range endToEnd {
		if v := out.e2e[d.Name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.Name, v)
		}
	}
	cfg.trace = true
	out, err = runners[cfg.workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.errs) > 0 {
		t.Fatalf("traced checks failed: %v", out.errs)
	}
	for _, d := range perLayer {
		if _, ok := out.layer[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(out.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

func TestSmokePaper(t *testing.T) { smoke(t, config{workload: "paper", seed: 1}) }
func TestSmokeFleet(t *testing.T) { smoke(t, config{workload: "fleet", seed: 2}) }
func TestSmokeChurn(t *testing.T) { smoke(t, config{workload: "churn", seed: 3}) }

func TestSmokeDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ninjad")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/ninjad")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ninjad: %v\n%s", err, out)
	}
	smoke(t, config{workload: "daemon", seed: 4, ninjad: bin})
}

// TestSeedDrivesInputs checks that the seed reaches the generated inputs:
// the churn arrivals, the daemon's directive pool and the fault victims.
func TestSeedDrivesInputs(t *testing.T) {
	a, b := churnConfigs(config{seed: 1}), churnConfigs(config{seed: 2})
	if a[0].Workload.Seed == b[0].Workload.Seed || a[0].Workload.Seed == a[1].Workload.Seed {
		t.Error("churn arrival seed does not follow the workload seed")
	}
	same := true
	p1, p2 := daemonPool(1, 6), daemonPool(2, 6)
	for i := range p1 {
		if string(p1[i].body) != string(p2[i].body) {
			same = false
		}
	}
	if same {
		t.Error("daemon pool does not depend on the seed")
	}
	victims := map[string]bool{}
	for s := int64(1); s <= 20; s++ {
		sc := fleetScenarios(16, s)
		victims[sc[len(sc)-1].ExtraFaults.Specs[0].Target] = true
	}
	if len(victims) < 2 {
		t.Errorf("fleet fault victim never changes with the seed: %v", victims)
	}
	if p := daemonPool(7, 6); string(p[0].body) != string(daemonPool(7, 6)[0].body) {
		t.Error("daemon pool is not a pure function of the seed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// benchmark prints in step: same names, units and directions, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.name, len(c.json), len(c.code))
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}
