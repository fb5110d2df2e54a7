package simfarm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fakeRun is a directive run that derives a deterministic synthetic
// result from the seed, so pool-scheduling tests don't pay for real
// deployments.
func fakeRun(seed int64, _ *faults.Plan) (RunResult, error) {
	mk := float64(100 + seed*7)
	return RunResult{
		MakespanS:    mk,
		DowntimeS:    float64(seed),
		DeadlineMet:  seed%4 != 0,
		Replans:      int(seed % 2),
		Requeues:     int(seed % 3),
		FinishedSimS: mk + 5,
		Outcomes:     map[string]int{"clean": 1, "retried-ok": 1},
	}, nil
}

// fake builds a directive named name that runs run.
func fake(name string, run func(int64, *faults.Plan) (RunResult, error)) Directive {
	return Directive{Name: name, Run: run}
}

// p1 is a plan with one fixed-target spec, so its cells see a non-nil
// materialized plan named "p1".
var p1 = FaultPlan{Name: "p1", Specs: []FaultSpec{{Spec: faults.Spec{Kind: faults.KindNodeCrash}}}}

func simpleMatrix(seeds int, a, b func(int64, *faults.Plan) (RunResult, error)) Matrix {
	return Matrix{
		Directives: []Directive{fake("a", a), fake("b", b)},
		Plans:      []FaultPlan{{Name: "p0"}, p1},
		Seeds:      SeedRange{Count: seeds},
	}
}

// runAt runs the matrix at one parallelism level.
func runAt(t *testing.T, m Matrix, par int) *Result {
	t.Helper()
	f, err := New(m, Options{Parallelism: par})
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
	// 2×2×8 = 32 cells; each plan shifts the synthetic result.
	shift := func(plan *faults.Plan) int64 {
		if plan != nil {
			return 8
		}
		return 0
	}
	m := simpleMatrix(8,
		func(seed int64, plan *faults.Plan) (RunResult, error) {
			if seed == 5 {
				return RunResult{}, errors.New("scripted cell error")
			}
			return fakeRun(seed+shift(plan), plan)
		},
		func(seed int64, plan *faults.Plan) (RunResult, error) {
			if plan != nil && plan.Name == "p1" && seed == 3 {
				panic("scripted cell panic")
			}
			return fakeRun(seed+16+shift(plan), plan)
		})

	var summaries [][]byte
	var cellsJSON [][]byte
	var trails []string
	for _, par := range []int{1, 8} {
		f, err := New(m, Options{Parallelism: par})
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

// A directive's run gets the cell's plan materialized from the
// directive's own victim lists with the cell's seeded PRNG, so a cell
// draws the same victims and firing times at any parallelism. A plan
// without specs arrives as nil, and a VictimVM spec over a directive
// without VMs fails the cell.
func TestRunGetsMaterializedPlan(t *testing.T) {
	pick := FaultPlan{Name: "pick", Specs: []FaultSpec{
		{Spec: faults.Spec{Kind: faults.KindMigrateAbort, At: 10 * sim.Second}, AtJitter: 5 * sim.Second, Victim: VictimVM},
		{Spec: faults.Spec{Kind: faults.KindNodeCrash}, Victim: VictimDstNode},
	}}
	vms, nodes := []string{"v0", "v1", "v2"}, []string{"n0", "n1"}
	var draws [2]string
	for i, par := range []int{1, 3} {
		var mu sync.Mutex
		seen := map[int64]string{}
		run := func(seed int64, plan *faults.Plan) (RunResult, error) {
			if plan == nil {
				return fakeRun(seed, plan)
			}
			if plan.Name != "pick" || plan.Seed != seed || len(plan.Specs) != 2 {
				t.Errorf("seed %d: plan %+v", seed, plan)
			}
			v, n, at := plan.Specs[0].Target, plan.Specs[1].Target, plan.Specs[0].At
			if !slices.Contains(vms, v) || !slices.Contains(nodes, n) || at < 10*sim.Second || at > 15*sim.Second {
				t.Errorf("seed %d: victims %s, %s at %v outside the directive's lists or the jitter", seed, v, n, at)
			}
			mu.Lock()
			seen[seed] = fmt.Sprint(v, n, at)
			mu.Unlock()
			return fakeRun(seed, plan)
		}
		m := Matrix{
			Directives: []Directive{
				{Name: "fleet", VMs: vms, DstNodes: nodes, Run: run},
				{Name: "no-vms", DstNodes: nodes, Run: run},
			},
			Plans: []FaultPlan{{Name: "none"}, pick},
			Seeds: SeedRange{Count: 8},
		}
		res := runAt(t, m, par)
		if res.Summary.Failures != 8 {
			t.Fatalf("Failures = %d, want the 8 no-vms/pick cells", res.Summary.Failures)
		}
		for _, c := range res.Cells {
			if (c.Err != "") != (c.Directive == "no-vms" && c.Plan == "pick") {
				t.Fatalf("cell %s: Err %q", c.Cell, c.Err)
			}
		}
		draws[i] = fmt.Sprint(seen)
	}
	if draws[0] != draws[1] {
		t.Fatalf("materialized plans differ between parallelism 1 and 3:\n%s\n%s", draws[0], draws[1])
	}
}

// A panicking cell is recorded as that cell's failure — the sweep
// survives and the record says "panic: ...".
func TestPanicGuardRecordsCell(t *testing.T) {
	m := Matrix{Directives: []Directive{fake("d", func(seed int64, plan *faults.Plan) (RunResult, error) {
		if seed == 2 {
			panic(fmt.Sprintf("boom seed %d", seed))
		}
		return fakeRun(seed, plan)
	})}, Seeds: SeedRange{Count: 3}}
	res := runAt(t, m, 2)
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
	m := Matrix{Directives: []Directive{fake("d", func(seed int64, plan *faults.Plan) (RunResult, error) {
		if seed == 2 { // cancel after committing two cells
			cancel()
		}
		return fakeRun(seed, plan)
	})}, Seeds: SeedRange{Count: 6}}
	f, err := New(m, Options{Parallelism: 1})
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
	m := simpleMatrix(2, fakeRun, fakeRun) // 4 rows × 2 seeds
	f, err := New(m, Options{Parallelism: 4})
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
	good := Matrix{Directives: []Directive{fake("d", fakeRun)}}
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
	f, err := New(Matrix{Directives: []Directive{fake("d", fakeRun)}, Seeds: SeedRange{Count: 1}}, Options{})
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
	m := simpleMatrix(3, fakeRun, fakeRun)
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
