package main

import (
	"strings"
	"testing"
)

// benchOutput is captured `go test -bench . -benchtime 1x` output (lines
// trimmed to a few metrics each): simulated observables next to the
// harness's wall-clock and informational units.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkTable2HotplugLinkup-2           	       1	  15041952 ns/op	         3.840 sim-hotplug-s	        29.78 sim-linkup-s
BenchmarkFleetScale8-2                   	       1	   1540425 ns/op	      4725 events/op	   3072210 events/sec	  170168 B/op	    4914 allocs/op
BenchmarkFarmSweep-2                     	       1	 215863411 ns/op	         0 farm-failures	        72.64 farm-p50-evac-greedy-dst-crash-s	        10.5 runs/sec
BenchmarkChurnPolicies-2                 	       1	   3437253 ns/op	   2655610 churn-cost-greedy-crash-pts	         2.000 churn-migs-greedy-crash
BenchmarkSequencerPlan-2                 	       1	  13098687 ns/op	        32.00 seq-lpt-batches	      1190 seq-lpt-pred-s
BenchmarkAblationQPReplay                	       1	  11000000 ns/op	         1.000 rdma-demotions
PASS
ok  	repro	1.774s
`

func TestParseBenchGatesUnitsWithoutSlash(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTable2HotplugLinkup/sim-hotplug-s":          3.84,
		"BenchmarkTable2HotplugLinkup/sim-linkup-s":           29.78,
		"BenchmarkFarmSweep/farm-failures":                    0,
		"BenchmarkFarmSweep/farm-p50-evac-greedy-dst-crash-s": 72.64,
		"BenchmarkChurnPolicies/churn-cost-greedy-crash-pts":  2655610,
		"BenchmarkChurnPolicies/churn-migs-greedy-crash":      2,
		"BenchmarkSequencerPlan/seq-lpt-batches":              32,
		"BenchmarkSequencerPlan/seq-lpt-pred-s":               1190,
		"BenchmarkAblationQPReplay/rdma-demotions":            1,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d metrics, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", k, g, ok, v)
		}
	}
}

func TestParseBenchRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"bad value": "BenchmarkX-2 1 10 ns/op abc sim-x-s\n",
		"duplicate": "BenchmarkX-2 1 10 ns/op 1 sim-x-s\nBenchmarkX-4 1 10 ns/op 2 sim-x-s\n",
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
