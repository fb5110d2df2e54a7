// Disaster recovery (§II-A): the cloud scheduler evacuates VMs from a
// data center before it fails and brings them home later, driven through
// the scheduler package's planned-event API (the GridARS role).
//
// Run: go run ./examples/disaster_recovery
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	d, err := experiments.Deploy(experiments.DeployConfig{
		NVMs: 4, RanksPerVM: 4, AttachHCA: true,
		DstHasIB: false, ContinueLikeRestart: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	bench, err := workloads.NPBClassD("CG")
	if err != nil {
		log.Fatal(err)
	}
	bench.Iterations = 60
	appDone, err := workloads.Run(d.Job, bench)
	if err != nil {
		log.Fatal(err)
	}

	sched := scheduler.New(d.Orch)
	epoch := d.K.Now()
	// Tsunami warning at t+60 s: evacuate to the remote Ethernet site.
	if err := sched.Plan(scheduler.Event{
		At: epoch + 60*sim.Second, Reason: scheduler.DisasterRecovery,
		Dsts: d.DstNodes(4),
	}); err != nil {
		log.Fatal(err)
	}
	// All-clear at t+400 s: recover to the InfiniBand site.
	if err := sched.Plan(scheduler.Event{
		At: epoch + 400*sim.Second, Reason: scheduler.Recovery,
		Dsts: d.SrcNodes(4),
	}); err != nil {
		log.Fatal(err)
	}
	fin, err := sched.Start()
	if err != nil {
		log.Fatal(err)
	}
	d.K.Run()
	if !fin.Done() || !appDone.Done() {
		log.Fatal("scheduler plan or application incomplete")
	}

	for _, out := range sched.Outcomes() {
		status := "ok"
		if out.Err != nil {
			status = out.Err.Error()
		}
		fmt.Printf("%-17s planned t=%7.1fs  ran %7.1fs–%7.1fs  overhead %6.1fs  [%s]\n",
			out.Event.Reason, out.Event.At.Seconds(),
			out.Started.Seconds(), out.Finished.Seconds(),
			out.Report.Total.Seconds(), status)
	}
	where := map[string]int{}
	for _, vm := range d.VMs {
		where[vm.Node().Name]++
	}
	fmt.Printf("VM placement after recovery: %v\n", where)
	name, _ := d.Job.Rank(0).TransportTo(d.Job.Size() - 1)
	fmt.Printf("inter-VM transport: %s — the job never restarted\n", name)
}
