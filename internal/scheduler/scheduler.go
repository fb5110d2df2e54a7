// Package scheduler models the cloud scheduler the paper assumes (§III-C:
// "we assume that the cloud scheduler provides information, including the
// source and destination nodes of migration, and the PCI ID of a
// VMM-bypass I/O device"). It delivers trigger events — maintenance
// windows, disaster evacuations, consolidation decisions — to a Ninja
// orchestrator at scheduled times and records the outcomes, in the spirit
// of the GridARS middleware the authors cite.
package scheduler

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hw"
	"repro/internal/ninja"
	"repro/internal/sim"
)

// Reason classifies why a migration is triggered (§II-A use cases).
type Reason int

const (
	// Maintenance: non-stop hardware/software maintenance.
	Maintenance Reason = iota
	// Consolidation: high resource utilization / server consolidation.
	Consolidation
	// DisasterRecovery: evacuate before the data center fails.
	DisasterRecovery
	// Recovery: migrate back after the fallback condition clears.
	Recovery
)

// String returns the reason label.
func (r Reason) String() string {
	switch r {
	case Maintenance:
		return "maintenance"
	case Consolidation:
		return "consolidation"
	case DisasterRecovery:
		return "disaster-recovery"
	case Recovery:
		return "recovery"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Event is one planned migration.
type Event struct {
	At     sim.Time
	Reason Reason
	// Dsts is the destination host list (one node per VM, job order) —
	// the information the scheduler owns.
	Dsts []*hw.Node
}

// Outcome records a completed trigger.
type Outcome struct {
	Event  Event
	Report ninja.Report
	Err    error
	// Started/Finished are the actual execution times.
	Started, Finished sim.Time
}

// Scheduler executes a plan of migration events against an orchestrator.
type Scheduler struct {
	k     *sim.Kernel
	orch  *ninja.Orchestrator
	plan  []Event
	done  []Outcome
	fin   *sim.Future[struct{}]
	begun bool
}

// ErrAlreadyStarted guards against double Start.
var ErrAlreadyStarted = errors.New("scheduler: already started")

// DstCountError reports a planned event whose destination list does not
// match the job's VM count — the migration script needs exactly one
// destination node per VM, in job VM order.
type DstCountError struct {
	Event Event
	Want  int // job VM count
	Got   int // len(Event.Dsts)
}

func (e *DstCountError) Error() string {
	return fmt.Sprintf("scheduler: event %s at t=%.2fs has %d destinations for a %d-VM job",
		e.Event.Reason, e.Event.At.Seconds(), e.Got, e.Want)
}

// New builds a scheduler over an orchestrator.
func New(orch *ninja.Orchestrator) *Scheduler {
	return &Scheduler{k: orch.Job().Kernel(), orch: orch}
}

// Plan appends an event to the plan (events may be added in any order;
// they execute sorted by time). The destination list is validated here,
// at plan time: a mismatch against the job's VM count returns a
// *DstCountError instead of surfacing mid-migration.
func (s *Scheduler) Plan(ev Event) error {
	if want := len(s.orch.Job().VMs()); len(ev.Dsts) != want {
		return &DstCountError{Event: ev, Want: want, Got: len(ev.Dsts)}
	}
	s.plan = append(s.plan, ev)
	return nil
}

// PlanSize returns the number of planned events.
func (s *Scheduler) PlanSize() int { return len(s.plan) }

// Start launches the plan executor. Events run strictly sequentially in
// time order — a trigger that arrives while a previous migration is still
// running waits for it (the runtime refuses concurrent checkpoints).
// Events sharing a timestamp execute in plan-insertion order (the sort is
// stable), so a plan is deterministic regardless of timer coincidences.
// The returned future resolves when every planned event has executed.
func (s *Scheduler) Start() (*sim.Future[struct{}], error) {
	if s.begun {
		return nil, ErrAlreadyStarted
	}
	s.begun = true
	s.fin = sim.NewFuture[struct{}](s.k)
	plan := append([]Event(nil), s.plan...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	s.k.Go("cloud-scheduler", func(p *sim.Proc) {
		for _, ev := range plan {
			if ev.At > p.Now() {
				p.Sleep(ev.At - p.Now())
			}
			out := Outcome{Event: ev, Started: p.Now()}
			out.Report, out.Err = s.orch.Migrate(p, ev.Dsts)
			out.Finished = p.Now()
			s.done = append(s.done, out)
		}
		s.fin.Set(struct{}{})
	})
	return s.fin, nil
}

// Outcomes returns the executed events in completion order.
func (s *Scheduler) Outcomes() []Outcome { return s.done }

// Spares is the scheduler's pool of standby destination nodes, handed to
// the orchestrator (ninja.Options.Spares) so a migration whose planned
// destination died mid-flight can be redirected instead of aborted. It
// implements ninja.SparePool and is safe for concurrent use — a fleet of
// orchestrators running gang migrations in parallel may all reach for the
// same pool, and two of them must never walk away with the same node.
type Spares struct {
	mu    sync.Mutex
	nodes []*hw.Node
}

// NewSpares builds a pool from standby nodes (order is preference order).
func NewSpares(nodes ...*hw.Node) *Spares {
	return &Spares{nodes: append([]*hw.Node(nil), nodes...)}
}

// Add appends a standby node to the pool.
func (s *Spares) Add(n *hw.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes = append(s.nodes, n)
}

// Remaining returns how many spares are still available.
func (s *Spares) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// Acquire removes and returns the first healthy spare that is not already
// a planned destination, or nil when none qualifies.
func (s *Spares) Acquire(exclude []*hw.Node) *hw.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.nodes {
		if n.Failed() || contains(exclude, n) {
			continue
		}
		s.nodes = append(s.nodes[:i], s.nodes[i+1:]...)
		return n
	}
	return nil
}

func contains(ns []*hw.Node, n *hw.Node) bool {
	for _, x := range ns {
		if x == n {
			return true
		}
	}
	return false
}
