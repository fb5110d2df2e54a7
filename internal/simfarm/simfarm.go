// Package simfarm is the sharded Monte Carlo sweep farm: it fans a
// directive × fault-plan × seed matrix out over a bounded pool of worker
// goroutines — each cell running its directive on an independent
// simulation — and aggregates the per-run measurements into percentile
// distributions (p50/p90/p99/max makespan and downtime, deadline-miss
// rate, outcome tallies) per matrix row. The farm knows nothing of what
// a directive runs: the built-in matrices live in internal/scenario,
// whose directives are scenario Specs.
//
// The farm turns the one-at-a-time spot checks of `ninjabench
// -run=ext-fleet` into statistical acceptance surfaces: thousands of
// seeded scenarios per second across all cores instead of a single
// trajectory, which is what honestly comparing sequencing or placement
// policies under churn requires.
//
// Determinism contract: a Summary is byte-identical regardless of worker
// count. Cells are enumerated in a fixed order (directive-major, then
// fault plan, then seed), every cell derives all of its randomness from
// its own seeded *rand.Rand, workers never share mutable state, and the
// aggregator commits results in enumeration order — never completion
// order. A cell that panics or fails is recorded as a failed cell (also
// deterministically) instead of killing the sweep.
package simfarm

import (
	"fmt"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/sim"
)

// OptionsError reports a rejected sweep knob, following the typed
// validation pattern of fleet.OptionsError: the zero value of every
// tunable selects a documented default, and values that are always caller
// bugs (negative counts) are refused loudly instead of silently clamped.
// It is returned, errors.As-able directly, by Matrix.Validate,
// Options.Validate and New.
type OptionsError struct {
	Field  string // e.g. "Options.Parallelism"
	Value  int64
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("simfarm: invalid %s %d: %s", e.Field, e.Value, e.Reason)
}

// Directive is one entry of the matrix's policy axis: a named run plus
// the names its fault plans draw victims from.
type Directive struct {
	// Name labels the directive in summaries and progress events.
	Name string
	// VMs and DstNodes are the victim lists VictimVM and VictimDstNode
	// specs draw from, in the deployment's deterministic order.
	VMs, DstNodes []string
	// Run executes one cell on a fresh simulation: seed is the cell seed
	// and plan the materialized fault plan (nil for a plan without
	// specs). It fills RunResult's measurements; the farm fills the
	// cell's identity. Run must be safe for concurrent calls.
	Run func(seed int64, plan *faults.Plan) (RunResult, error)
}

// VictimKind selects how a FaultSpec resolves its target per cell.
type VictimKind int

const (
	// VictimFixed keeps Spec.Target exactly as written (empty selects the
	// faults package's own deterministic default).
	VictimFixed VictimKind = iota
	// VictimVM draws the target from the deployment's fleet VM names with
	// the cell's seeded PRNG.
	VictimVM
	// VictimDstNode draws the target from the deployment's destination
	// node names (dc1 IB nodes, then dc2 Ethernet nodes) with the cell's
	// seeded PRNG.
	VictimDstNode
)

// FaultSpec is one scripted fault template of a FaultPlan. Spec.At is
// relative to the directive trigger; the materialized cell adds a uniform
// jitter drawn from [0, AtJitter] on top.
type FaultSpec struct {
	Spec faults.Spec
	// AtJitter widens the firing instant: each cell draws an extra offset
	// uniformly from [0, AtJitter] with its seeded PRNG (0 = fire exactly
	// at Spec.At).
	AtJitter sim.Time
	// Victim selects per-cell target resolution.
	Victim VictimKind
}

// FaultPlan is one entry of the matrix's fault axis: a named template
// materialized into a concrete faults.Plan per cell.
type FaultPlan struct {
	Name  string
	Specs []FaultSpec
}

// materialize resolves the template against one cell: seeded victims,
// jittered firing times, and the cell seed threaded through as the
// faults.Plan seed (driving any empty-target selection inside the faults
// package). Draws happen in spec order — victim first, then jitter — so
// the PRNG stream consumption is fixed.
func (fp FaultPlan) materialize(seed int64, rng *rand.Rand, vms, dstNodes []string) (faults.Plan, error) {
	plan := faults.Plan{Name: fp.Name, Seed: seed}
	for i, fs := range fp.Specs {
		s := fs.Spec
		switch fs.Victim {
		case VictimFixed:
		case VictimVM:
			if len(vms) == 0 {
				return plan, fmt.Errorf("simfarm: plan %s spec %d: no VMs to pick a victim from", fp.Name, i)
			}
			s.Target = vms[rng.Intn(len(vms))]
		case VictimDstNode:
			if len(dstNodes) == 0 {
				return plan, fmt.Errorf("simfarm: plan %s spec %d: no destination nodes to pick a victim from", fp.Name, i)
			}
			s.Target = dstNodes[rng.Intn(len(dstNodes))]
		default:
			return plan, fmt.Errorf("simfarm: plan %s spec %d: unknown victim kind %d", fp.Name, i, fs.Victim)
		}
		if fs.AtJitter < 0 {
			return plan, fmt.Errorf("simfarm: plan %s spec %d: negative AtJitter", fp.Name, i)
		}
		if fs.AtJitter > 0 {
			s.At += sim.Time(rng.Int63n(int64(fs.AtJitter) + 1))
		}
		plan.Specs = append(plan.Specs, s)
	}
	return plan, nil
}

// SeedRange is the matrix's replication axis: Count consecutive seeds
// starting at Base.
type SeedRange struct {
	// Base is the first seed (0 selects the default of 1; negative values
	// are rejected — seeds name cells in labels and logs, and negative
	// ones are invariably a sign-extension bug upstream).
	Base int64
	// Count is the number of seeds per (directive, plan) row (0 selects
	// the default of 16; negative values are rejected).
	Count int
}

func (sr SeedRange) base() int64 {
	if sr.Base == 0 {
		return 1
	}
	return sr.Base
}

func (sr SeedRange) count() int {
	if sr.Count == 0 {
		return 16
	}
	return sr.Count
}

// Matrix is a full sweep specification. Enumeration order is fixed and
// documented: directives are the major axis, fault plans the middle, and
// seeds the minor — cell index ((d·|Plans|)+p)·|Seeds|+s. Aggregation,
// progress events, and summaries all follow this order, which is what
// makes a Summary independent of worker count.
type Matrix struct {
	Directives []Directive
	// Plans is the fault axis. An empty slice means a single empty plan
	// named "none" (a pure policy sweep).
	Plans []FaultPlan
	Seeds SeedRange
}

// Validate rejects matrix values that are always caller bugs. The zero
// value of every tunable selects the documented default.
func (m Matrix) Validate() error {
	if len(m.Directives) == 0 {
		return &OptionsError{
			Field: "Matrix.Directives", Value: 0,
			Reason: "a sweep needs at least one directive",
		}
	}
	if m.Seeds.Count < 0 {
		return &OptionsError{
			Field: "Matrix.Seeds.Count", Value: int64(m.Seeds.Count),
			Reason: "seed count must not be negative (0 selects the default of 16)",
		}
	}
	if m.Seeds.Base < 0 {
		return &OptionsError{
			Field: "Matrix.Seeds.Base", Value: m.Seeds.Base,
			Reason: "seed base must not be negative (0 selects the default of 1)",
		}
	}
	return nil
}

// SelectPlans restricts the matrix's fault axis to the named plans.
// Plans keep their matrix order regardless of the order names arrive in
// — cell enumeration stays canonical, so two callers selecting the same
// subset get byte-identical summaries. Unknown names are rejected with
// an *OptionsError naming the plans the matrix actually has; an empty
// selection keeps the full axis.
func (m Matrix) SelectPlans(names ...string) (Matrix, error) {
	if len(names) == 0 {
		return m, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var kept []FaultPlan
	var have []string
	for _, p := range m.plans() {
		have = append(have, p.Name)
		if want[p.Name] {
			kept = append(kept, p)
			delete(want, p.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for _, n := range names {
			if want[n] {
				unknown = append(unknown, n)
				delete(want, n)
			}
		}
		return m, &OptionsError{
			Field: "Matrix.Plans", Value: int64(len(unknown)),
			Reason: fmt.Sprintf("unknown fault plan(s) %v (matrix has %v)", unknown, have),
		}
	}
	m.Plans = kept
	return m, nil
}

// plans returns the fault axis with the empty-axis default applied.
func (m Matrix) plans() []FaultPlan {
	if len(m.Plans) == 0 {
		return []FaultPlan{{Name: "none"}}
	}
	return m.Plans
}

// Rows returns the number of matrix rows (directive × fault-plan pairs).
func (m Matrix) Rows() int { return len(m.Directives) * len(m.plans()) }

// Runs returns the total cell count.
func (m Matrix) Runs() int { return m.Rows() * m.Seeds.count() }

// Cell is one enumerated run of the sweep.
type Cell struct {
	// Index is the cell's position in enumeration order; Row the matrix
	// row (directive × plan pair) it belongs to.
	Index, Row int
	Directive  Directive
	Plan       FaultPlan
	Seed       int64
}

// Label renders "evac-swap/dst-crash/seed03"-style cell identifiers.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/seed%02d", c.Directive.Name, c.Plan.Name, c.Seed)
}

// Cells enumerates the matrix in the documented deterministic order.
func (m Matrix) Cells() []Cell {
	plans := m.plans()
	base, count := m.Seeds.base(), m.Seeds.count()
	out := make([]Cell, 0, m.Runs())
	for _, d := range m.Directives {
		for _, p := range plans {
			row := len(out) / count
			for s := 0; s < count; s++ {
				out = append(out, Cell{
					Index:     len(out),
					Row:       row,
					Directive: d,
					Plan:      p,
					Seed:      base + int64(s),
				})
			}
		}
	}
	return out
}
