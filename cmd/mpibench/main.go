// Command mpibench runs IMB-style MPI microbenchmarks on the simulated
// testbed, optionally straddling a Ninja migration — the quickest way to
// see a deployment's communication profile change from openib to tcp and
// back.
//
// Examples:
//
//	mpibench -pattern=pingpong
//	mpibench -pattern=allreduce -vms=8 -ranks=8
//	mpibench -pattern=exchange -compare   # before vs after fallback
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// run measures the sweep. With tcpOnly the VMs boot without passthrough
// HCAs, so the job selects the tcp BTL — the transport it would be on
// after a fallback migration.
func run(pattern string, nVMs, ranks int, tcpOnly bool) ([]workloads.IMBResult, error) {
	d, err := experiments.Deploy(experiments.DeployConfig{
		NVMs: nVMs, RanksPerVM: ranks, AttachHCA: !tcpOnly,
		DstHasIB: false, ContinueLikeRestart: true,
	})
	if err != nil {
		return nil, err
	}
	defer d.K.Close()
	bench := &workloads.IMB{Pattern: pattern}
	done, err := workloads.Run(d.Job, bench)
	if err != nil {
		return nil, err
	}
	d.K.Run()
	if !done.Done() {
		return nil, fmt.Errorf("benchmark did not finish")
	}
	return bench.Results, nil
}

func render(title string, rows []workloads.IMBResult) {
	t := metrics.NewTable(title, "bytes", "t_avg [µs]", "throughput [MB/s]")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f", r.Bytes),
			fmt.Sprintf("%.2f", float64(r.AvgTime)/float64(sim.Microsecond)),
			fmt.Sprintf("%.1f", r.Throughput/1e6))
	}
	fmt.Println(t)
}

func main() {
	pattern := flag.String("pattern", "pingpong", "pingpong | exchange | allreduce | bcast | alltoall")
	nVMs := flag.Int("vms", 2, "number of VMs")
	ranks := flag.Int("ranks", 1, "ranks per VM")
	compare := flag.Bool("compare", false, "also measure after a fallback migration to Ethernet/TCP")
	flag.Parse()

	rows, err := run(strings.ToLower(*pattern), *nVMs, *ranks, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		os.Exit(1)
	}
	render(fmt.Sprintf("IMB %s — %d×%d ranks, VMM-bypass InfiniBand", *pattern, *nVMs, *ranks), rows)

	if *compare {
		rows, err := run(strings.ToLower(*pattern), *nVMs, *ranks, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpibench:", err)
			os.Exit(1)
		}
		render(fmt.Sprintf("IMB %s — fallback-operation transport (tcp/virtio)", *pattern), rows)
	}
}
