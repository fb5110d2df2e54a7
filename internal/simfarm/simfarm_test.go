package simfarm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/sim"
)

var faultsPlanStub = faults.Plan{Name: "stub"}

// fakeResult builds a deterministic synthetic FleetResult from a seed, so
// pool-scheduling tests don't pay for real deployments.
func fakeResult(seed int64) *experiments.FleetResult {
	mk := sim.Time(100+seed*7) * sim.Second
	return &experiments.FleetResult{
		Row: experiments.FleetRow{
			Makespan: mk,
			Downtime: sim.Time(seed) * sim.Second,
			Deadline: seed%4 != 0,
			Replans:  int(seed % 2),
			Requeues: int(seed % 3),
		},
		Report: fleet.Report{
			Finished: mk + 5*sim.Second,
			Jobs: []fleet.JobOutcome{
				{Outcome: ninja.OutcomeClean},
				{Outcome: ninja.OutcomeRetriedOK},
			},
		},
	}
}

func simpleMatrix(seeds int) Matrix {
	return Matrix{
		Directives: []Directive{{Name: "a"}, {Name: "b"}},
		Plans:      []FaultPlan{{Name: "p0"}, {Name: "p1"}},
		Seeds:      SeedRange{Count: seeds},
	}
}

// runAt runs the matrix with the given runner at one parallelism level.
func runAt(t *testing.T, m Matrix, par int, run func(Cell) (*experiments.FleetResult, error)) *Result {
	t.Helper()
	f, err := New(m, Options{Parallelism: par, Runner: run})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The core contract: the Summary — and the full per-cell record and the
// progress trail — are byte-identical at parallelism 1 and 8, including
// when one cell panics and another errors.
func TestSummaryByteIdenticalAcrossParallelism(t *testing.T) {
	m := simpleMatrix(8) // 2×2×8 = 32 cells
	run := func(c Cell) (*experiments.FleetResult, error) {
		if c.Directive.Name == "b" && c.Plan.Name == "p1" && c.Seed == 3 {
			panic("scripted cell panic")
		}
		if c.Directive.Name == "a" && c.Seed == 5 {
			return nil, errors.New("scripted cell error")
		}
		return fakeResult(c.Seed + int64(c.Index)), nil
	}

	var summaries [][]byte
	var cellsJSON [][]byte
	var trails []string
	for _, par := range []int{1, 8} {
		f, err := New(m, Options{Parallelism: par, Runner: run})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Wall.Parallelism != par {
			t.Fatalf("Wall.Parallelism = %d, want %d", res.Wall.Parallelism, par)
		}
		summaries = append(summaries, res.Summary.JSON())
		cj, err := json.Marshal(res.Cells)
		if err != nil {
			t.Fatal(err)
		}
		cellsJSON = append(cellsJSON, cj)
		trails = append(trails, f.Events().String())
	}
	if !bytes.Equal(summaries[0], summaries[1]) {
		t.Fatalf("summary differs between parallelism 1 and 8:\n--- par=1 ---\n%s\n--- par=8 ---\n%s",
			summaries[0], summaries[1])
	}
	if !bytes.Equal(cellsJSON[0], cellsJSON[1]) {
		t.Fatal("per-cell records differ between parallelism 1 and 8")
	}
	if trails[0] != trails[1] {
		t.Fatalf("event trails differ between parallelism 1 and 8:\n--- par=1 ---\n%s\n--- par=8 ---\n%s",
			trails[0], trails[1])
	}

	var s Summary
	if err := json.Unmarshal(summaries[0], &s); err != nil {
		t.Fatal(err)
	}
	if s.Runs != 32 || s.Failures != 3 { // 1 panic + 2 errors (a/p0/seed5, a/p1/seed5)
		t.Fatalf("Runs/Failures = %d/%d, want 32/3", s.Runs, s.Failures)
	}
}

// A panicking cell is recorded as that cell's failure — the sweep
// survives and the record says "panic: ...".
func TestPanicGuardRecordsCell(t *testing.T) {
	m := Matrix{Directives: []Directive{{Name: "d"}}, Seeds: SeedRange{Count: 3}}
	res := runAt(t, m, 2, func(c Cell) (*experiments.FleetResult, error) {
		if c.Seed == 2 {
			panic(fmt.Sprintf("boom seed %d", c.Seed))
		}
		return fakeResult(c.Seed), nil
	})
	if res.Summary.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", res.Summary.Failures)
	}
	if got := res.Cells[1].Err; got != "panic: boom seed 2" {
		t.Fatalf("panicked cell Err = %q", got)
	}
	if res.Cells[1].Skipped {
		t.Fatal("panicked cell marked skipped")
	}
}

// Cancelling mid-sweep skips the unstarted cells, keeps the committed
// ones, and surfaces context.Canceled alongside the partial result.
func TestCancellationSkipsRemainingCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := Matrix{Directives: []Directive{{Name: "d"}}, Seeds: SeedRange{Count: 6}}
	f, err := New(m, Options{Parallelism: 1, Runner: func(c Cell) (*experiments.FleetResult, error) {
		if c.Seed == 2 { // cancel after committing two cells
			cancel()
		}
		return fakeResult(c.Seed), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Run returned no partial result")
	}
	if res.Summary.Runs != 2 {
		t.Fatalf("Runs = %d, want the 2 committed before cancel", res.Summary.Runs)
	}
	skipped := 0
	for _, c := range res.Cells {
		if c.Skipped {
			skipped++
		}
	}
	if skipped != 4 {
		t.Fatalf("%d cells skipped, want 4", skipped)
	}
}

// The progress trail is one sweep-cell per committed cell plus one
// sweep-row per matrix row, in enumeration order.
func TestProgressEvents(t *testing.T) {
	m := simpleMatrix(2) // 4 rows × 2 seeds
	f, err := New(m, Options{Parallelism: 4, Runner: func(c Cell) (*experiments.FleetResult, error) {
		return fakeResult(c.Seed), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	f.Events().SetNotify(func(metrics.Event) { streamed++ })
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.Events().Count(metrics.EventSweepCell); got != 8 {
		t.Fatalf("%d sweep-cell events, want 8", got)
	}
	if got := f.Events().Count(metrics.EventSweepRow); got != 4 {
		t.Fatalf("%d sweep-row events, want 4", got)
	}
	if streamed != f.Events().Len() {
		t.Fatalf("notify streamed %d of %d events", streamed, f.Events().Len())
	}
	// Cells appear in enumeration order.
	cells := m.Cells()
	i := 0
	for _, e := range f.Events().Events() {
		if e.Kind != metrics.EventSweepCell {
			continue
		}
		want := cells[i].Directive.Name + "/" + cells[i].Plan.Name
		if e.Phase != want {
			t.Fatalf("sweep-cell %d phase %q, want %q", i, e.Phase, want)
		}
		i++
	}
}

func TestValidation(t *testing.T) {
	good := Matrix{Directives: []Directive{{Name: "d"}}}
	cases := []struct {
		name  string
		m     Matrix
		opts  Options
		field string
	}{
		{"no directives", Matrix{}, Options{}, "Matrix.Directives"},
		{"negative seed count", Matrix{Directives: good.Directives, Seeds: SeedRange{Count: -1}}, Options{}, "Matrix.Seeds.Count"},
		{"negative seed base", Matrix{Directives: good.Directives, Seeds: SeedRange{Base: -7}}, Options{}, "Matrix.Seeds.Base"},
		{"negative parallelism", good, Options{Parallelism: -2}, "Options.Parallelism"},
		{"reserved ExtraFaults", Matrix{Directives: []Directive{{
			Name: "d", Sc: experiments.FleetScenario{ExtraFaults: &faultsPlanStub},
		}}}, Options{}, "Matrix.Directives"},
	}
	for _, tc := range cases {
		_, err := New(tc.m, tc.opts)
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: err = %v, want *OptionsError", tc.name, err)
		}
		if oe.Field != tc.field {
			t.Fatalf("%s: Field = %q, want %q", tc.name, oe.Field, tc.field)
		}
	}
	// Zero values select defaults instead of failing.
	f, err := New(good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Matrix().Runs(); got != 16 { // 1 row × default 16 seeds
		t.Fatalf("default Runs = %d, want 16", got)
	}
}

func TestFarmRunsOnlyOnce(t *testing.T) {
	f, err := New(Matrix{Directives: []Directive{{Name: "d"}}, Seeds: SeedRange{Count: 1}},
		Options{Runner: func(Cell) (*experiments.FleetResult, error) { return fakeResult(1), nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestDistOfNearestRank(t *testing.T) {
	if d := distOf(nil); d != (Dist{}) {
		t.Fatalf("empty distOf = %+v", d)
	}
	// 1..100: nearest-rank pXX of N=100 is exactly XX.
	var vals []float64
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	d := distOf(vals)
	if d.P50 != 50 || d.P90 != 90 || d.P99 != 99 || d.Max != 100 {
		t.Fatalf("distOf(1..100) = %+v", d)
	}
	// Small sample: N=4, p50 = ceil(2)-1 = index 1, p99 = ceil(3.96)-1 = index 3.
	d = distOf([]float64{4, 1, 3, 2})
	if d.P50 != 2 || d.P99 != 4 || d.Max != 4 {
		t.Fatalf("distOf(1..4) = %+v", d)
	}
	// distOf must not mutate its argument.
	if vals[0] != 100 {
		t.Fatal("distOf sorted the caller's slice")
	}
}

// Matrix enumeration: directive-major, then plan, then seed, with
// contiguous row indices.
func TestCellEnumerationOrder(t *testing.T) {
	m := simpleMatrix(3)
	cells := m.Cells()
	if len(cells) != m.Runs() || m.Runs() != 12 {
		t.Fatalf("Runs = %d, cells = %d, want 12", m.Runs(), len(cells))
	}
	want := []string{
		"a/p0/seed01", "a/p0/seed02", "a/p0/seed03",
		"a/p1/seed01", "a/p1/seed02", "a/p1/seed03",
		"b/p0/seed01", "b/p0/seed02", "b/p0/seed03",
		"b/p1/seed01", "b/p1/seed02", "b/p1/seed03",
	}
	for i, c := range cells {
		if c.Label() != want[i] {
			t.Fatalf("cell %d = %s, want %s", i, c.Label(), want[i])
		}
		if c.Index != i || c.Row != i/3 {
			t.Fatalf("cell %d: Index=%d Row=%d", i, c.Index, c.Row)
		}
	}
}

// The real fleet runner end to end, small: the default matrix with 2
// jobs and 2 seeds (4 directives × 3 plans × 2 = 24 cells) must complete
// with zero failures and identical summaries at both parallelism levels.
func TestDefaultMatrixFleetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet sweep")
	}
	m := DefaultMatrix(2, 2)
	a := runAt(t, m, 1, nil)
	b := runAt(t, m, 8, nil)
	if a.Summary.Failures != 0 {
		for _, c := range a.Cells {
			if c.Err != "" {
				t.Errorf("cell %s failed: %s", c.Cell, c.Err)
			}
		}
		t.Fatalf("%d cell(s) failed", a.Summary.Failures)
	}
	if !bytes.Equal(a.Summary.JSON(), b.Summary.JSON()) {
		t.Fatalf("fleet sweep summary differs between parallelism 1 and 8:\n%s\nvs\n%s",
			a.Summary.JSON(), b.Summary.JSON())
	}
	// The fault plans must actually bite: the dst-crash rows should show
	// recovery activity (replans, retried jobs or spare usage) somewhere.
	for _, r := range a.Summary.Rows {
		if r.Runs != 2 {
			t.Fatalf("row %s/%s has %d runs, want 2", r.Directive, r.Plan, r.Runs)
		}
	}
}

// The churn axis end to end: the churn matrix (2 policies × 2 plans)
// runs real churn cells, each seed a different workload, with a
// byte-identical summary at parallelism 1 and 8.
func TestChurnMatrixByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("real churn sweep")
	}
	m := ChurnMatrix(24, 3)
	a := runAt(t, m, 1, nil)
	b := runAt(t, m, 8, nil)
	if a.Summary.Failures != 0 {
		for _, c := range a.Cells {
			if c.Err != "" {
				t.Errorf("cell %s failed: %s", c.Cell, c.Err)
			}
		}
		t.Fatalf("%d cell(s) failed", a.Summary.Failures)
	}
	if !bytes.Equal(a.Summary.JSON(), b.Summary.JSON()) {
		t.Fatalf("churn sweep summary differs between parallelism 1 and 8:\n%s\nvs\n%s",
			a.Summary.JSON(), b.Summary.JSON())
	}
	// The policy axis must be live: only the destination-swap rows spend
	// corrective migrations (summed as Replans), and the greedy rows none.
	for _, r := range a.Summary.Rows {
		switch r.Directive {
		case "churn-swap":
			if r.Replans == 0 {
				t.Errorf("row %s/%s: destination-swap made no corrective moves", r.Directive, r.Plan)
			}
		case "churn-greedy":
			if r.Replans != 0 {
				t.Errorf("row %s/%s: greedy made %d corrective moves, want 0", r.Directive, r.Plan, r.Replans)
			}
		}
		if n := r.Outcomes["departed"] + r.Outcomes["rejected"]; n != 24*r.Runs {
			t.Errorf("row %s/%s leaked jobs: outcomes %v over %d runs of 24 jobs",
				r.Directive, r.Plan, r.Outcomes, r.Runs)
		}
	}
}

// A churn directive that tries to script its own faults is rejected:
// the farm's fault axis owns Sc.Faults.
func TestChurnDirectiveFaultsRejected(t *testing.T) {
	m := ChurnMatrix(8, 1)
	m.Directives[0].Churn.Sc.Faults = &faultsPlanStub
	var oe *OptionsError
	if _, err := New(m, Options{}); !errors.As(err, &oe) {
		t.Fatalf("New = %v, want *OptionsError for Churn.Sc.Faults", err)
	}
}
