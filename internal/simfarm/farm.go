package simfarm

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Options tune a Farm.
type Options struct {
	// Parallelism is the worker-pool size — how many independent sim
	// kernels run concurrently. 0 selects runtime.GOMAXPROCS(0); negative
	// values are rejected by Validate/New with an *OptionsError. The
	// Summary does not depend on this knob.
	Parallelism int
}

// Validate rejects option values that are always caller bugs.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return &OptionsError{
			Field: "Options.Parallelism", Value: int64(o.Parallelism),
			Reason: "worker count must not be negative (0 selects GOMAXPROCS)",
		}
	}
	return nil
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Farm executes one sweep matrix. Build with New, observe progress via
// Events, then Run once.
type Farm struct {
	m     Matrix
	opts  Options
	clock sim.Time
	ev    *metrics.EventLog
	ran   bool
}

// New validates the matrix and options and builds a farm.
func New(m Matrix, opts Options) (*Farm, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	f := &Farm{m: m, opts: opts}
	// The farm has no single simulated clock — each cell runs its own
	// kernel — so the progress trail is stamped with the *committed*
	// cell's simulated end time. Commits happen in enumeration order, so
	// the trail is deterministic (though not monotone: cells are
	// independent simulations that all start at their own epoch).
	f.ev = metrics.NewEventLog(func() sim.Time { return f.clock })
	return f, nil
}

// Matrix returns the farm's (validated) matrix.
func (f *Farm) Matrix() Matrix { return f.m }

// Events returns the farm's progress log: one EventSweepCell per
// committed cell and one EventSweepRow per completed matrix row, in
// enumeration order. Wire SetNotify into it before Run to stream live.
func (f *Farm) Events() *metrics.EventLog { return f.ev }

// Run executes the sweep: cells fan out over the worker pool, finish in
// whatever order the scheduler produces, and are committed — aggregated,
// logged — strictly in enumeration order. On context cancellation the
// cells already started run to completion (a cell's simulation has no
// internal blocking), unstarted cells are marked skipped, and Run
// returns the partial Result alongside ctx.Err().
func (f *Farm) Run(ctx context.Context) (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("simfarm: farm already run")
	}
	f.ran = true

	cells := f.m.Cells()
	results := make([]RunResult, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}

	start := time.Now()
	workers := f.opts.parallelism()
	if workers > len(cells) {
		workers = len(cells)
	}
	var next int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(cells) {
					return
				}
				if ctx.Err() != nil {
					results[i] = RunResult{
						Cell:      cells[i].Label(),
						Directive: cells[i].Directive.Name,
						Plan:      cells[i].Plan.Name,
						Seed:      cells[i].Seed,
						Skipped:   true,
					}
				} else {
					results[i] = runCell(cells[i])
				}
				close(done[i])
			}
		}()
	}

	// Aggregate in enumeration order, never completion order: cell i is
	// not looked at before every cell < i has been committed.
	perRow := f.m.Seeds.count()
	for i := range cells {
		<-done[i]
		r := results[i]
		if r.Skipped {
			continue
		}
		f.clock = sim.FromSeconds(r.FinishedSimS)
		detail := fmt.Sprintf("makespan %.2fs downtime %.2fs %s", r.MakespanS, r.DowntimeS, outcomeString(r.Outcomes))
		if !r.DeadlineMet {
			detail += " DEADLINE-MISS"
		}
		if r.Err != "" {
			detail = "FAILED: " + r.Err
		}
		f.ev.Record(metrics.EventSweepCell, r.Directive+"/"+r.Plan, fmt.Sprintf("seed%02d", r.Seed), detail)
		if (i+1)%perRow == 0 {
			f.ev.Record(metrics.EventSweepRow, r.Directive+"/"+r.Plan, "",
				fmt.Sprintf("row %d/%d aggregated (%d seed(s))", cells[i].Row+1, f.m.Rows(), perRow))
		}
	}

	elapsed := time.Since(start)
	res := &Result{
		Summary: summarize(f.m, results),
		Cells:   results,
		Wall:    WallStats{Parallelism: workers, Elapsed: elapsed},
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Wall.RunsPerSec = float64(res.Summary.Runs) / secs
	}
	return res, ctx.Err()
}

// runCell executes one cell under the panic guard: a panicking run —
// whether it escapes the directive's executor or the kernel — is
// recorded as that cell's failure instead of killing the sweep. (Sim proc
// panics re-panic out of Kernel.Run on this worker's goroutine, so the
// guard catches those too.) The fault plan materializes with the cell's
// own seeded PRNG: victims and jitter are drawn from it, nothing global.
func runCell(cell Cell) (out RunResult) {
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
		}
		// Every outcome, failed or not, carries the cell's identity.
		out.Cell = cell.Label()
		out.Directive = cell.Directive.Name
		out.Plan = cell.Plan.Name
		out.Seed = cell.Seed
	}()
	d := cell.Directive
	var plan *faults.Plan
	if len(cell.Plan.Specs) > 0 {
		rng := rand.New(rand.NewSource(cell.Seed))
		p, err := cell.Plan.materialize(cell.Seed, rng, d.VMs, d.DstNodes)
		if err != nil {
			return RunResult{Err: err.Error()}
		}
		plan = &p
	}
	out, err := d.Run(cell.Seed, plan)
	if err != nil {
		return RunResult{Err: err.Error()}
	}
	return out
}
