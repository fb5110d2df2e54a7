// Command benchdiff guards the simulated-result benchmark metrics against
// drift. It reads `go test -bench` output on stdin and compares every
// gated metric against a committed baseline. The rule is one convention on
// units: a unit containing "/" (ns/op, B/op, allocs/op, events/sec,
// runs/sec, events/op, ...) is wall-clock or informational and never
// compared; every other unit is a deterministic simulated observable
// (sim-*, farm-*, churn-*, seq-*, rdma-*, ...) and is gated.
//
// Usage:
//
//	go test -bench . -benchtime 1x | benchdiff          # compare
//	go test -bench . -benchtime 1x | benchdiff -update  # re-baseline
//
// Only metrics present in the input are compared, so a smoke run over a
// benchmark subset checks just that subset. A metric in the input but not
// in the baseline is an error (run -update after intentionally adding one).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	baseline := flag.String("baseline", "scripts/bench_baseline.json", "committed baseline metrics file")
	update := flag.Bool("update", false, "overwrite the baseline with the observed metrics instead of comparing")
	tol := flag.Float64("tol", 1e-6, "relative tolerance for metric comparison")
	flag.Parse()

	observed, err := parseBench(os.Stdin)
	if err != nil {
		fatal("%v", err)
	}
	if len(observed) == 0 {
		fatal("no gated metrics found on stdin (pipe `go test -bench` output in)")
	}

	if *update {
		if err := writeJSON(*baseline, observed); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: baseline %s updated with %d metric(s)\n", *baseline, len(observed))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatal("%v (run with -update to create it)", err)
	}
	want := map[string]float64{}
	if err := json.Unmarshal(data, &want); err != nil {
		fatal("%s: %v", *baseline, err)
	}

	keys := make([]string, 0, len(observed))
	for k := range observed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var drift []string
	for _, k := range keys {
		got := observed[k]
		exp, ok := want[k]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: %g not in baseline (new metric? run -update)", k, got))
			continue
		}
		if !within(got, exp, *tol) {
			drift = append(drift, fmt.Sprintf("%s: got %g, baseline %g", k, got, exp))
		}
	}
	if len(drift) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) drifted from %s:\n", len(drift), *baseline)
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) match %s (tol %g)\n", len(observed), *baseline, *tol)
}

// parseBench extracts the gated "value unit" metric pairs — those whose
// unit has no "/" — from go-test benchmark output, keyed by
// "BenchName/unit" with any -GOMAXPROCS suffix stripped.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; after that, (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if strings.Contains(unit, "/") {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s", name, fields[i], unit)
			}
			key := name + "/" + unit
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("duplicate metric %s", key)
			}
			out[key] = v
		}
	}
	return out, sc.Err()
}

func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func writeJSON(path string, m map[string]float64) error {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
