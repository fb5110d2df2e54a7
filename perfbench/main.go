// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator (or the ninjad daemon), checks the
// outputs, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics and a Chrome trace — as one JSON object on the last
// line of standard output. README.md in this directory describes the
// workloads and metrics.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric with its unit and direction, as
// BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"sim_downtime_s", "sim_s", "lower"},
	{"sim_makespan_s", "sim_s", "lower"},
	{"model_err_s", "sim_s", "lower"},
	{"sim_cost", "pt.s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
}

// perLayer lists the per-layer metrics every traced run prints. A layer
// a workload does not reach reports 0.
var perLayer = []metricDef{
	{"experiments.deploy_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.scheduled", "count", "lower"},
	{"sim.cancelled", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.ctx_switches", "count", "lower"},
	{"mpi.app_host_s", "s", "lower"},
	{"ninja.migrate_host_s", "s", "lower"},
	{"ninja.sim_coordination_s", "sim_s", "lower"},
	{"ninja.sim_hotplug_s", "sim_s", "lower"},
	{"ninja.sim_migration_s", "sim_s", "lower"},
	{"ninja.sim_linkup_s", "sim_s", "lower"},
	{"ninja.retries", "count", "lower"},
	{"ninja.degraded", "count", "lower"},
	{"ninja.rollbacks", "count", "lower"},
	{"vmm.precopy_iters", "count", "lower"},
	{"vmm.wire_gb", "GB", "lower"},
	{"vmm.scanned_gb", "GB", "lower"},
	{"vmm.qp_resync_s", "sim_s", "lower"},
	{"vmm.rdma_demoted", "count", "lower"},
	{"fleet.plan_host_s", "s", "lower"},
	{"fleet.execute_host_s", "s", "lower"},
	{"fleet.pred_err_pct", "%", "lower"},
	{"fleet.batches", "count", "lower"},
	{"fleet.replans", "count", "lower"},
	{"fleet.requeues", "count", "lower"},
	{"fleet.deadline_misses", "count", "lower"},
	{"churn.greedy_host_s", "s", "lower"},
	{"churn.swap_host_s", "s", "lower"},
	{"churn.placed", "count", "higher"},
	{"churn.rejected", "count", "lower"},
	{"churn.swap_migs", "count", "lower"},
	{"churn.fault_migs", "count", "lower"},
	{"churn.wait_p95_s", "sim_s", "lower"},
	{"ninjad.submit_p50_ms", "ms", "lower"},
	{"ninjad.submit_p99_ms", "ms", "lower"},
	{"ninjad.get_p50_ms", "ms", "lower"},
	{"ninjad.get_p99_ms", "ms", "lower"},
	{"ninjad.list_ms", "ms", "lower"},
	{"ninjad.resp_kb", "KB", "lower"},
	{"jobs.queue_wait_p50_ms", "ms", "lower"},
	{"jobs.queue_wait_p99_ms", "ms", "lower"},
	{"jobs.run_p50_ms", "ms", "lower"},
	{"jobs.run_p99_ms", "ms", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.allocs", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	ninjad   string // ninjad binary (daemon workload)
	work     string // scratch directory for stores and traces
	small    bool   // reduced sizes, for the smoke tests
}

// outcome is a finished run: end-to-end values (untraced) or per-layer
// values with their exactness marks (traced), plus the check tally.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	exact     map[string]bool
	spans     []span
	attempted int
	errs      []string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var runners = map[string]func(config) (*outcome, error){
	"paper":  runPaper,
	"fleet":  runFleet,
	"churn":  runChurn,
	"daemon": runDaemon,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper, fleet, churn or daemon")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (churn arrivals, daemon directive pool, fault victims)")
	flag.IntVar(&seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics and write a Chrome trace")
	flag.StringVar(&cfg.ninjad, "ninjad", ".bench_build/bin/ninjad", "ninjad binary (daemon workload)")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for daemon stores and traces")
	flag.Parse()
	if err := run(cfg, seconds, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, seconds, trace int) error {
	fn, ok := runners[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper, fleet, churn or daemon)", cfg.workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := resultOut{
		Correct:   len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    len(out.errs),
		Metrics:   map[string]metricOut{},
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeChrome(path, out.spans, map[string]any{
			"workload": cfg.workload, "seed": cfg.seed,
			"per_layer": out.layer, "exact": out.exact,
		}); err != nil {
			return err
		}
		printLayers(out)
		fmt.Printf("trace: %d spans written to %s\n", len(out.spans), path)
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// printLayers prints the per-layer table, marking the values that
// repeated exactly in every traced pass: those may be cited as counts.
func printLayers(out *outcome) {
	for _, d := range perLayer {
		mark := ""
		if out.exact[d.Name] {
			mark = "  exact"
		}
		fmt.Printf("layer %-26s %16.6g %-6s%s\n", d.Name, out.layer[d.Name], d.Unit, mark)
	}
}

// inProcessOutcome turns a run of passes into the run's outcome.
func inProcessOutcome(cfg config, m *measured, tr *tracer) *outcome {
	out := &outcome{e2e: map[string]float64{}}
	out.errs = append(out.errs, m.ref.errs...)
	for _, p := range m.passes {
		out.attempted += max(p.attempted, len(p.ops))
		out.errs = append(out.errs, p.errs...)
	}
	if !cfg.trace {
		// setup_s sums, over the pass's deploys in order, each deploy's
		// median host time across passes: the deploys take well under a
		// millisecond each, and a per-pass sum would carry every burst
		// of host slowness that hit any one of them.
		var byDeploy [][]float64
		hostByOp := map[string][]float64{}
		var names []string
		for _, p := range m.passes {
			for i, d := range p.deploys {
				if i == len(byDeploy) {
					byDeploy = append(byDeploy, nil)
				}
				byDeploy[i] = append(byDeploy[i], d.Seconds())
			}
			for _, o := range p.ops {
				if _, seen := hostByOp[o.name]; !seen {
					names = append(names, o.name)
				}
				hostByOp[o.name] = append(hostByOp[o.name], float64(o.host.Nanoseconds())/1e6)
			}
		}
		var opMedians []float64
		for _, n := range names {
			opMedians = append(opMedians, median(hostByOp[n]))
		}
		failed := 0
		for _, o := range m.ref.ops {
			if o.failed {
				failed++
			}
		}
		var setup float64
		for _, ds := range byDeploy {
			setup += median(ds)
		}
		runS := median(seconds(m.runs))
		out.e2e["setup_s"] = setup
		out.e2e["run_s"] = runS
		out.e2e["peak_rss_mb"] = peakRSSMB()
		out.e2e["failed_frac"] = fraction(failed, len(m.ref.ops)) // unless the workload sets it below
		out.e2e["jobs_per_s"] = float64(len(m.ref.ops)) / runS
		out.e2e["job_p50_ms"] = percentile(opMedians, 50)
		out.e2e["job_p99_ms"] = percentile(opMedians, 99)
		for k, v := range m.ref.sim {
			out.e2e[k] = v
		}
		return out
	}
	var traced []map[string]float64
	for _, p := range m.passes {
		if p.layer != nil {
			traced = append(traced, p.layer)
		}
	}
	out.layer, out.exact = layerMedians(traced)
	out.spans = tr.snapshot()
	setTraceLayer(out, seconds(m.traced), seconds(m.untraced))
	return out
}

// layerMedians reduces the traced passes' per-layer values to medians and
// marks the values that were identical in every traced pass.
func layerMedians(traced []map[string]float64) (map[string]float64, map[string]bool) {
	med, exact := map[string]float64{}, map[string]bool{}
	for _, d := range perLayer {
		var vs []float64
		for _, l := range traced {
			vs = append(vs, l[d.Name])
		}
		med[d.Name] = median(vs)
		exact[d.Name] = len(vs) > 1 && allEqual(vs)
	}
	return med, exact
}

// setTraceLayer sets the tracing layer's own metrics: the overhead (the
// median traced pass minus the median untraced one) and the spans per
// traced pass, exact when every traced pass recorded the same number.
func setTraceLayer(out *outcome, traced, untraced []float64) {
	out.layer["trace.overhead_s"] = median(traced) - median(untraced)
	out.exact["trace.overhead_s"] = false
	perRun := map[int]float64{}
	for _, s := range out.spans {
		perRun[s.Run]++
	}
	var counts []float64
	for _, n := range perRun {
		counts = append(counts, n)
	}
	out.layer["trace.spans"] = median(counts)
	out.exact["trace.spans"] = len(counts) > 1 && allEqual(counts)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
