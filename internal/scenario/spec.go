// Package scenario is the one description of a directive: the JSON
// object ninjad accepts on POST /jobs and ninjabench runs with -spec.
// Each kind decodes into its own body type, so the fields a kind takes
// are declared once, as the fields of that type; the README's ninjad API
// section lists them with their defaults. Run maps a Spec onto the
// experiment types and runs it; the result is a pure function of the
// Spec, which is what lets ninjad re-run a job after a crash.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/simfarm"
)

// Directive kinds. An empty kind on the wire is an evacuation.
const (
	KindEvacuate = "evacuate"
	KindRolling  = "rolling-maintenance"
	KindChurn    = "churn"
	KindSweep    = "sweep"
)

// Spec is one directive: its kind and the one body that kind takes.
type Spec struct {
	Kind  string
	Fleet *Fleet // evacuate, rolling-maintenance
	Churn *Churn // churn
	Sweep *Sweep // sweep
}

// Fleet is the body of an evacuation or a rolling-maintenance drain over
// the three-site testbed of experiments.DeployFleet.
type Fleet struct {
	kindKey
	Placement      string `json:"placement,omitempty"` // greedy | swap
	Batched        bool   `json:"batched,omitempty"`
	Cap            int    `json:"cap,omitempty"`
	Seq            string `json:"seq,omitempty"`  // lpt | maxflow
	Mode           string `json:"mode,omitempty"` // live | rdma | cold
	MaxInFlight    int    `json:"max_in_flight,omitempty"`
	ReturnHome     bool   `json:"return_home,omitempty"`
	Faulted        bool   `json:"faulted,omitempty"`
	ForcedRollback bool   `json:"forced_rollback,omitempty"`
	Jobs           int    `json:"jobs,omitempty"`
	VMsPerJob      int    `json:"vms_per_job,omitempty"`
}

// Churn is the body of an online churn run of internal/churn.
type Churn struct {
	kindKey
	Placement string `json:"placement,omitempty"` // greedy | swap
	Seq       string `json:"seq,omitempty"`       // lpt | maxflow
	Jobs      int    `json:"jobs,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Faulted   bool   `json:"faulted,omitempty"`
}

// Sweep is the body of a Monte Carlo sweep over a simfarm matrix.
// Parallelism changes wall clock only: the result is byte-identical at
// any worker count.
type Sweep struct {
	kindKey
	Matrix      string   `json:"matrix,omitempty"` // default | churn
	FaultPlans  []string `json:"fault_plans,omitempty"`
	Jobs        int      `json:"jobs,omitempty"`
	Seeds       int      `json:"seeds,omitempty"`
	SeedBase    int64    `json:"seed_base,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
}

// kindKey holds a body's "kind" key, so that the strict decode of the
// whole object into the body accepts it. Spec.Kind is the directive's
// kind: an empty key there reads as an evacuation.
type kindKey struct {
	Kind string `json:"kind,omitempty"`
}

// Decode reads and validates one directive. The body must be exactly one
// JSON object: null and trailing data are refused (json.Unmarshal reads
// the whole input), so neither can run a default fleet. The kind is read
// first, then the object is decoded into that kind's body with unknown
// fields refused — a typo ("placment") or a field the kind does not take
// is an error even when its value is zero.
func Decode(raw []byte) (Spec, error) {
	if b := bytes.TrimSpace(raw); len(b) == 0 || b[0] != '{' {
		return Spec{}, fmt.Errorf("directive: must be a JSON object")
	}
	var head struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return Spec{}, fmt.Errorf("directive: %w", err)
	}
	s := Spec{Kind: head.Kind}
	if s.Kind == "" {
		s.Kind = KindEvacuate
	}
	// The kind key decodes into the body's kindKey the same way it did
	// into head, so the two agree.
	var body any
	switch s.Kind {
	case KindEvacuate, KindRolling:
		s.Fleet = new(Fleet)
		body = s.Fleet
	case KindChurn:
		s.Churn = new(Churn)
		body = s.Churn
	case KindSweep:
		s.Sweep = new(Sweep)
		body = s.Sweep
	default:
		return s, s.Validate()
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(body); err != nil {
		return s, fmt.Errorf("directive: kind %q: %w", s.Kind, err)
	}
	return s, s.Validate()
}

// Validate refuses a Spec that cannot run: an unknown kind or one without
// its body, consolidate (the ninjad testbed boots one VM per source node,
// so there is no packing headroom), an unknown enum value, a negative
// count, return_home on a rolling drain, or a sweep fault plan the matrix
// does not have (a wrapped *simfarm.OptionsError).
func (s Spec) Validate() error {
	var err error
	switch {
	case s.Kind == "consolidate":
		return fmt.Errorf("directive: kind %q not supported: the ninjad testbed has no packing headroom (one VM per source node)", s.Kind)
	case (s.Kind == KindEvacuate || s.Kind == KindRolling) && s.Fleet != nil:
		err = s.Fleet.validate(s.Kind)
	case s.Kind == KindChurn && s.Churn != nil:
		err = s.Churn.validate()
	case s.Kind == KindSweep && s.Sweep != nil:
		err = s.Sweep.validate()
	default:
		return fmt.Errorf("directive: unknown kind %q or no body for it (want %s, %s, %s or %s)",
			s.Kind, KindEvacuate, KindRolling, KindSweep, KindChurn)
	}
	if err != nil {
		return fmt.Errorf("directive: %w", err)
	}
	return nil
}

// The wire values of the enum fields and what they select.
var (
	placements = map[string]fleet.PlacementPolicy{"": fleet.PlaceGreedy, "greedy": fleet.PlaceGreedy, "swap": fleet.PlaceSwap}
	policies   = map[string]churn.Policy{"": churn.PolicyGreedy, "greedy": churn.PolicyGreedy, "swap": churn.PolicySwap}
	modes      = map[string]ninja.Mode{"": ninja.Live, "live": ninja.Live, "rdma": ninja.RDMANative, "cold": ninja.Cold}
	matrices   = map[string]func(jobs int) sweep{"": defaultSweep, "default": defaultSweep, "churn": churnSweep}
)

func (f *Fleet) validate(kind string) error {
	if _, ok := placements[f.Placement]; !ok {
		return fmt.Errorf("unknown placement %q (want greedy or swap)", f.Placement)
	}
	if _, ok := modes[f.Mode]; !ok {
		return fmt.Errorf("unknown mode %q (want live, rdma or cold)", f.Mode)
	}
	if f.MaxInFlight < 0 || f.Cap < 0 || f.Jobs < 0 || f.VMsPerJob < 0 {
		return errNegative
	}
	if kind == KindRolling && f.ReturnHome {
		return fmt.Errorf("return_home applies to evacuations only")
	}
	return fleet.SeqPolicy{Mode: f.Seq}.Validate()
}

func (c *Churn) validate() error {
	if _, ok := policies[c.Placement]; !ok {
		return fmt.Errorf("unknown placement %q (want greedy or swap)", c.Placement)
	}
	if c.Jobs < 0 || c.Seed < 0 {
		return errNegative
	}
	return fleet.SeqPolicy{Mode: c.Seq}.Validate()
}

func (w *Sweep) validate() error {
	if w.Jobs < 0 || w.Seeds < 0 || w.SeedBase < 0 || w.Parallelism < 0 {
		return errNegative
	}
	_, err := w.matrix()
	return err
}

var errNegative = fmt.Errorf("negative counts are not valid")

// matrix builds the sweep's matrix: the selected base matrix with the
// fault axis restricted to any named plans. Validate calls it, so an
// unknown plan name is refused when the directive is decoded, not when
// it runs.
func (w *Sweep) matrix() (simfarm.Matrix, error) {
	build, ok := matrices[w.Matrix]
	if !ok {
		return simfarm.Matrix{}, fmt.Errorf("unknown matrix %q (want default or churn)", w.Matrix)
	}
	m := build(w.Jobs).matrix(w.Seeds)
	m.Seeds.Base = w.SeedBase
	return m.SelectPlans(w.FaultPlans...)
}

// sweep is a built-in matrix before it meets the farm: named directive
// Specs crossed with fault plans.
type sweep struct {
	directives []namedSpec
	plans      []simfarm.FaultPlan
}

// namedSpec is one entry of a sweep's directive axis.
type namedSpec struct {
	name string
	spec Spec
}

// matrix builds the farm matrix with seeds seeds per row (0 = the
// simfarm.SeedRange default of 16).
func (w sweep) matrix(seeds int) simfarm.Matrix {
	m := simfarm.Matrix{Plans: w.plans, Seeds: simfarm.SeedRange{Count: seeds}}
	for _, d := range w.directives {
		m.Directives = append(m.Directives, d.spec.directive(d.name))
	}
	return m
}

// DefaultMatrix is the ext-sweep matrix: four directive/policy shapes
// (sequential greedy evacuation, batched swap-refined evacuation, a
// capped rolling-maintenance drain, and a batched swap-refined
// evacuation in RDMA-native mode — QP replay instead of hotplug for the
// IB-capable half of the fleet) crossed with three fault plans (fault
// free, a jittered crash of a seeded destination node, and a precopy
// socket drop against a seeded victim VM). jobs sizes each cell's fleet
// (0 = 4 jobs — smaller than the ext-fleet default 8, because a sweep
// multiplies every cell cost by |matrix|); seeds is the per-row
// replication count (0 = 16).
func DefaultMatrix(jobs, seeds int) simfarm.Matrix { return defaultSweep(jobs).matrix(seeds) }

// ChurnMatrix is the churn sweep matrix: both online placement policies
// (greedy first-fit and adaptive destination-swap) crossed with a
// fault-free plan and a jittered crash of a seeded destination node.
// Where DefaultMatrix replays one evacuation trajectory per cell, this
// matrix replays the continuous arrival/departure workload — each seed
// is a different workload, not just a different fault draw. jobs sizes
// each cell's arrival count (0 = 32, half the ninjabench ext-churn
// default, because a sweep multiplies every cell cost by |matrix|);
// seeds is the per-row replication count (0 = 16).
func ChurnMatrix(jobs, seeds int) simfarm.Matrix { return churnSweep(jobs).matrix(seeds) }

func defaultSweep(jobs int) sweep {
	if jobs == 0 {
		jobs = 4
	}
	return sweep{
		directives: []namedSpec{
			{"evac-greedy", Spec{Kind: KindEvacuate, Fleet: &Fleet{Jobs: jobs}}},
			{"evac-swap-batched", Spec{Kind: KindEvacuate, Fleet: &Fleet{Placement: "swap", Batched: true, Cap: 4, Jobs: jobs}}},
			{"rolling-cap2", Spec{Kind: KindRolling, Fleet: &Fleet{Placement: "swap", MaxInFlight: 2, Jobs: jobs}}},
			{"evac-swap-rdma", Spec{Kind: KindEvacuate, Fleet: &Fleet{Placement: "swap", Batched: true, Cap: 4, Mode: "rdma", Jobs: jobs}}},
		},
		plans: []simfarm.FaultPlan{
			{Name: "none"},
			{
				Name: "dst-crash",
				Specs: []simfarm.FaultSpec{{
					Spec:     faults.Spec{Kind: faults.KindNodeCrash, At: 2 * sim.Second, For: 120 * sim.Second},
					AtJitter: 20 * sim.Second,
					Victim:   simfarm.VictimDstNode,
				}},
			},
			{
				Name: "migrate-abort",
				Specs: []simfarm.FaultSpec{{
					Spec:   faults.Spec{Kind: faults.KindMigrateAbort, Pass: 1, Count: 1},
					Victim: simfarm.VictimVM,
				}},
			},
		},
	}
}

func churnSweep(jobs int) sweep {
	if jobs == 0 {
		jobs = 32
	}
	return sweep{
		directives: []namedSpec{
			{"churn-greedy", Spec{Kind: KindChurn, Churn: &Churn{Placement: "greedy", Jobs: jobs}}},
			// Avin et al.'s destination-swap policy (arXiv:1309.5826).
			{"churn-swap", Spec{Kind: KindChurn, Churn: &Churn{Placement: "swap", Jobs: jobs}}},
		},
		plans: []simfarm.FaultPlan{
			{Name: "none"},
			{
				Name: "node-crash",
				Specs: []simfarm.FaultSpec{{
					Spec:     faults.Spec{Kind: faults.KindNodeCrash, At: 60 * sim.Second, For: 180 * sim.Second},
					AtJitter: 120 * sim.Second,
					Victim:   simfarm.VictimDstNode,
				}},
			},
		},
	}
}
