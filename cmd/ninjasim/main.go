// Command ninjasim runs a single configurable Ninja migration scenario on
// the simulated AGC testbed and prints the workload timeline plus the
// migration overhead breakdown.
//
// Examples:
//
//	ninjasim -vms=4 -ranks=8 -workload=bcast -steps=20 -migrate-step=5 -dst=eth
//	ninjasim -vms=8 -ranks=1 -workload=memtest -array-gb=8 -migrate-at=30 -dst=ib
//	ninjasim -vms=8 -ranks=8 -workload=CG -scale=0.1 -migrate-at=60 -dst=ib
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	nVMs := flag.Int("vms", 4, "number of VMs (1-8)")
	ranks := flag.Int("ranks", 1, "MPI ranks per VM")
	workload := flag.String("workload", "bcast", "bcast | memtest | BT | CG | FT | LU")
	steps := flag.Int("steps", 20, "iterations (bcast) / passes (memtest)")
	arrayGB := flag.Float64("array-gb", 2, "memtest array size per VM [GB]")
	scale := flag.Float64("scale", 0.1, "NPB iteration scale")
	migrateAt := flag.Float64("migrate-at", 30, "trigger time [s after start]; <0 disables")
	dst := flag.String("dst", "eth", "destination cluster: ib | eth")
	mode := flag.String("mode", "live", "transfer mechanism: live | cold (checkpoint/restart via NFS)")
	clr := flag.Bool("continue-like-restart", true, "set ompi_cr_continue_like_restart")
	faultPlan := flag.String("faults", "none",
		"fault plan: builtin name ("+strings.Join(faults.BuiltinNames(), ", ")+
			") or spec string like 'migrate-abort@60s:vm=vm00,pass=1'; enables retry policy. "+
			"@times are absolute simulated time (boot at 0; the run starts after ≈31s of link training)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ninjasim:", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM stop the simulation cooperatively: the workload
	// iteration hooks check ctx and halt the kernel at the current event,
	// so the process exits cleanly instead of spinning through the rest of
	// the run (memtest has no iteration hook and runs to completion).
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	plan, err := faults.ParsePlan(*faultPlan)
	if err != nil {
		die(err)
	}

	d, err := experiments.Deploy(experiments.DeployConfig{
		NVMs: *nVMs, RanksPerVM: *ranks, AttachHCA: true,
		DstHasIB: strings.EqualFold(*dst, "ib"), ContinueLikeRestart: *clr,
	})
	if err != nil {
		die(err)
	}
	defer d.K.Close()

	if !plan.Empty() {
		// Faulty runs get the resilient orchestrator: bounded phases,
		// retries, degradation to TCP, spare destinations.
		pol := ninja.DefaultRetryPolicy()
		spares := scheduler.NewSpares(d.Dst.Nodes[*nVMs:]...)
		d.Orch = ninja.New(d.Job, ninja.Options{Retry: &pol, Spares: spares})
		inj := faults.NewInjector(d.K, plan, faults.Env{
			VMs: d.VMs, Nodes: d.DstNodes(*nVMs), Store: d.NFS,
			Log: func(kind, subject, detail string) {
				d.Orch.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
			},
		})
		if err := inj.Arm(); err != nil {
			die(err)
		}
	}

	// checkpoint is the cooperative cancellation point, called from the
	// iteration hooks (inside the kernel's single event loop, so no
	// synchronization is needed).
	checkpoint := func() {
		if ctx.Err() != nil {
			d.K.Stop()
		}
	}
	series := metrics.Series{Label: *workload}
	var w workloads.Workload
	switch strings.ToLower(*workload) {
	case "bcast":
		w = &workloads.BcastReduce{BytesPerNode: 8e9, Steps: *steps,
			StepDone: func(s int, e sim.Time) { series.Add(s+1, e); checkpoint() }}
	case "memtest":
		w = &workloads.Memtest{ArrayBytes: *arrayGB * 1e9, Passes: *steps}
	default:
		b, err := workloads.NPBClassD(strings.ToUpper(*workload))
		if err != nil {
			die(err)
		}
		b.Iterations = int(float64(b.Iterations) * *scale)
		if b.Iterations < 4 {
			b.Iterations = 4
		}
		b.IterDone = func(s int, e sim.Time) { series.Add(s+1, e); checkpoint() }
		w = b
	}

	appDone, err := workloads.Run(d.Job, w)
	if err != nil {
		die(err)
	}

	var rep ninja.Report
	var migErr error
	migrated := false
	if *migrateAt >= 0 {
		d.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(sim.FromSeconds(*migrateAt))
			dsts := make([]*hw.Node, *nVMs)
			for i := range dsts {
				dsts[i] = d.Dst.Nodes[i]
			}
			var r ninja.Report
			var err error
			if strings.EqualFold(*mode, "cold") {
				r, err = d.Orch.ColdMigrate(p, dsts)
			} else {
				r, err = d.Orch.Migrate(p, dsts)
			}
			if err != nil && r.Outcome != ninja.OutcomeRolledBack {
				die(err)
			}
			rep, migErr = r, err
			migrated = true
		})
	}
	start := d.K.Now()
	d.K.Run()
	if ctx.Err() != nil && !appDone.Done() {
		fmt.Fprintf(os.Stderr, "ninjasim: interrupted at t=%.2fs (%d workload steps recorded)\n",
			d.K.Now().Seconds(), len(series.Points))
		os.Exit(130)
	}
	if !appDone.Done() {
		die(fmt.Errorf("workload did not finish (deadlock?)"))
	}

	fmt.Printf("workload %s on %d VMs × %d ranks finished in %.2fs\n",
		*workload, *nVMs, *ranks, (d.K.Now() - start).Seconds())
	if migrated {
		fmt.Printf("ninja migration → %s cluster: coordination %.2fs, detach %.2fs, migration %.2fs, attach %.2fs, link-up %.2fs, total %.2fs\n",
			*dst, rep.Coordination.Seconds(), rep.Detach.Seconds(), rep.Migration.Seconds(),
			rep.Attach.Seconds(), rep.Linkup.Seconds(), rep.Total.Seconds())
		if name, err := d.Job.Rank(0).TransportTo(d.Job.Size() - 1); err == nil {
			fmt.Printf("transport now: %s\n", name)
		}
		if !plan.Empty() {
			fmt.Printf("outcome: %s (retries %d, spares %d, degraded-to-tcp %d)\n",
				rep.Outcome, rep.Retries, rep.SparesUsed, rep.DegradedToTCP)
			if migErr != nil {
				fmt.Printf("orchestration error: %v\n", migErr)
			}
			for _, ev := range rep.Events {
				fmt.Println("  " + ev.String())
			}
		}
	}
	if len(series.Points) > 0 {
		fmt.Println()
		fmt.Println(series.Bars(50))
	}
}
