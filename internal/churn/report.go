package churn

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Report is one churn run's outcome. The headline metric is
// CostIntegral — the time integral of the fleet-wide interconnect
// affinity deficit (ideal minus achieved, summed per VM over running
// jobs, in affinity-points·seconds). Lower is better; the adaptive
// policy spends migrations to buy it down.
type Report struct {
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
	// Duration is the simulated span from epoch to the last departure
	// or rejection (plus any trailing migration work).
	Duration sim.Time `json:"duration_ns"`

	// Every arrival ends up counted once, in Placed or in Rejected: a job
	// evicted by a node crash that then misses its re-placement deadline
	// leaves Placed for Rejected.
	Arrived  int `json:"arrived"`
	Placed   int `json:"placed"`
	Rejected int `json:"rejected"` // placement-deadline misses
	Departed int `json:"departed"`

	// SwapMigs counts corrective destination-swap migrations executed;
	// FaultMigs counts re-placements after a node crash; MigBytes is
	// their summed wire payload. Faults counts node-crash injections.
	SwapMigs  int     `json:"swap_migs"`
	FaultMigs int     `json:"fault_migs"`
	Faults    int     `json:"faults"`
	MigBytes  float64 `json:"mig_bytes"`

	// CostIntegral is ∫ affinity-deficit dt; AvgCost is the integral
	// over the run duration (time-weighted mean deficit).
	CostIntegral float64 `json:"cost_integral"`
	AvgCost      float64 `json:"avg_cost"`

	// Placement latency (queue wait of first-time placements),
	// nearest-rank percentiles. WaitTotal also folds in the queue time
	// of fault re-placements — the run's summed service interruption.
	WaitP50   sim.Time `json:"wait_p50_ns"`
	WaitP95   sim.Time `json:"wait_p95_ns"`
	WaitMax   sim.Time `json:"wait_max_ns"`
	WaitTotal sim.Time `json:"wait_total_ns"`

	waits []sim.Time
}

// finalize computes the wait percentiles from the recorded queue waits.
func (r *Report) finalize() {
	if len(r.waits) == 0 {
		return
	}
	w := append([]sim.Time(nil), r.waits...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	r.WaitP50 = nearestRank(w, 50)
	r.WaitP95 = nearestRank(w, 95)
	r.WaitMax = w[len(w)-1]
}

// nearestRank is the nearest-rank percentile over sorted samples — the
// same convention as the simfarm Dist aggregator, so churn rows read
// like sweep rows.
func nearestRank(sorted []sim.Time, pct int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// JSON renders the report in a stable byte order (struct field order,
// integer nanosecond times) — the byte-identity surface the ninjad and
// simfarm layers compare across backends and re-executions.
func (r Report) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"churn[%s seed=%d]: %d arrived, %d placed, %d rejected, %d departed; %d swap-migs, %d fault-migs; cost=%.0f (avg %.1f); wait p50=%v p95=%v",
		r.Policy, r.Seed, r.Arrived, r.Placed, r.Rejected, r.Departed,
		r.SwapMigs, r.FaultMigs, r.CostIntegral, r.AvgCost, r.WaitP50, r.WaitP95)
}
