package scenario

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/simfarm"
)

// Every directive of every built-in sweep is a Spec ninjad would accept.
func TestSweepDirectivesValidate(t *testing.T) {
	for name, build := range matrices {
		for _, jobs := range []int{0, 2} {
			for _, d := range build(jobs).directives {
				if err := d.spec.Validate(); err != nil {
					t.Errorf("matrix %q jobs %d directive %s: %v", name, jobs, d.name, err)
				}
			}
		}
	}
}

// runFarm runs m at one parallelism level and fails on any failed cell.
func runFarm(t *testing.T, m simfarm.Matrix, par int) *simfarm.Result {
	t.Helper()
	f, err := simfarm.New(m, simfarm.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Cell, c.Err)
		}
	}
	if res.Summary.Failures != 0 {
		t.Fatalf("%d cell(s) failed", res.Summary.Failures)
	}
	return res
}

// The fleet sweep end to end, small: the default matrix with 2 jobs and
// 2 seeds (4 directives × 3 plans × 2 = 24 cells) must complete with
// zero failures and identical summaries at both parallelism levels.
func TestDefaultMatrixFleetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet sweep")
	}
	m := DefaultMatrix(2, 2)
	a := runFarm(t, m, 1)
	b := runFarm(t, m, 8)
	if !bytes.Equal(a.Summary.JSON(), b.Summary.JSON()) {
		t.Fatalf("fleet sweep summary differs between parallelism 1 and 8:\n%s\nvs\n%s",
			a.Summary.JSON(), b.Summary.JSON())
	}
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
	a := runFarm(t, m, 1)
	b := runFarm(t, m, 8)
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
