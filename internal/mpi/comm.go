package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// collTagBase keeps collective traffic out of the application tag space.
const collTagBase = 1 << 20

// Comm is a communicator: an ordered subset of the job's ranks with its
// own collective context (tag space and sequence counters), like an
// MPI_Comm. The job's world (MPI_COMM_WORLD) is one; real NPB kernels run
// their transposes and reductions over row/column communicators of a
// process grid. Every collective is implemented once, here.
type Comm struct {
	job   *Job
	id    int
	ranks []*Rank // members, in communicator rank order
	index []int   // world rank → comm rank, −1 for non-members
	seq   []int   // per-member collective sequence counter, by comm rank
}

// World returns the communicator containing every rank, in world order.
func (j *Job) World() *Comm { return j.world }

// NewComm builds a communicator from world rank IDs (deduplicated,
// order-preserving). nil or empty means all ranks. Every participant must
// use the same member list — as with MPI groups, communicator creation is
// logically collective.
func (j *Job) NewComm(worldRanks []int) *Comm {
	if len(worldRanks) == 0 {
		worldRanks = make([]int, len(j.ranks))
		for i := range j.ranks {
			worldRanks[i] = i
		}
	}
	c := &Comm{job: j, id: j.nextCommID, index: make([]int, len(j.ranks))}
	j.nextCommID++
	for i := range c.index {
		c.index[i] = -1
	}
	for _, wr := range worldRanks {
		if wr < 0 || wr >= len(j.ranks) {
			panic(fmt.Sprintf("mpi: NewComm with world rank %d out of range", wr))
		}
		if c.index[wr] >= 0 {
			continue
		}
		c.index[wr] = len(c.ranks)
		c.ranks = append(c.ranks, j.ranks[wr])
	}
	c.seq = make([]int, len(c.ranks))
	return c
}

// Split partitions the world by color (like MPI_Comm_split with key =
// world rank): ranks with equal color land in one communicator, ordered
// by world rank. Returns the communicators keyed by color.
func (j *Job) Split(color func(worldRank int) int) map[int]*Comm {
	byColor := map[int][]int{}
	for i := range j.ranks {
		c := color(i)
		byColor[c] = append(byColor[c], i)
	}
	colors := make([]int, 0, len(byColor))
	for c := range byColor {
		colors = append(colors, c)
	}
	sort.Ints(colors) // deterministic comm-id assignment
	out := make(map[int]*Comm, len(byColor))
	for _, c := range colors {
		out[c] = j.NewComm(byColor[c])
	}
	return out
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns r's rank within the communicator.
func (c *Comm) RankOf(r *Rank) (int, bool) {
	i := c.index[r.id]
	return i, i >= 0
}

// WorldRank returns the world rank of communicator rank i.
func (c *Comm) WorldRank(i int) int { return c.ranks[i].id }

func (c *Comm) me(r *Rank) int {
	i, ok := c.RankOf(r)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d is not a member of this communicator", r.id))
	}
	return i
}

// tag allocates the tag of comm rank me's next collective. Because
// collectives are bulk-synchronous within a communicator, per-member
// counters stay aligned; communicator IDs keep concurrent communicators'
// traffic apart.
func (c *Comm) tag(me int) int {
	t := collTagBase + c.id<<12 + c.seq[me]%4096
	c.seq[me]++
	return t
}

// Bcast broadcasts bytes from communicator rank root via a binomial tree.
func (c *Comm) Bcast(p *sim.Proc, r *Rank, root int, bytes float64) error {
	n := len(c.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: bcast root %d", ErrRankRange, root)
	}
	me := c.me(r)
	tag := c.tag(me)
	vr := (me - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent := c.ranks[(vr-mask+root)%n].id
			if _, err := r.Recv(p, parent, tag); err != nil {
				return fmt.Errorf("mpi: bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			child := c.ranks[(vr+mask+root)%n].id
			if err := r.Send(p, child, tag, bytes); err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce combines bytes at communicator rank root via a binomial tree,
// charging reduction-operator compute at each combining step.
func (c *Comm) Reduce(p *sim.Proc, r *Rank, root int, bytes float64) error {
	n := len(c.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: reduce root %d", ErrRankRange, root)
	}
	me := c.me(r)
	tag := c.tag(me)
	vr := (me - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask == 0 {
			if vr+mask < n {
				child := c.ranks[(vr+mask+root)%n].id
				if _, err := r.Recv(p, child, tag); err != nil {
					return fmt.Errorf("mpi: reduce recv: %w", err)
				}
				// Combine the incoming buffer with the local one.
				r.Compute(p, bytes/reduceBandwidth)
			}
		} else {
			parent := c.ranks[(vr-mask+root)%n].id
			if err := r.Send(p, parent, tag, bytes); err != nil {
				return fmt.Errorf("mpi: reduce send: %w", err)
			}
			break
		}
		mask <<= 1
	}
	return nil
}

// Allreduce is Reduce to comm rank 0 followed by Bcast.
func (c *Comm) Allreduce(p *sim.Proc, r *Rank, bytes float64) error {
	if err := c.Reduce(p, r, 0, bytes); err != nil {
		return err
	}
	return c.Bcast(p, r, 0, bytes)
}

// Alltoall exchanges blockBytes with every other member via pairwise
// exchange (XOR schedule; requires power-of-two sizes for perfect
// pairing, which all paper configurations satisfy, but degrades gracefully
// by skipping out-of-range partners otherwise).
func (c *Comm) Alltoall(p *sim.Proc, r *Rank, blockBytes float64) error {
	n := len(c.ranks)
	me := c.me(r)
	tag := c.tag(me)
	for round := 1; round < nextPow2(n); round++ {
		partner := me ^ round
		if partner >= n {
			continue
		}
		pw := c.ranks[partner].id
		if _, err := r.Sendrecv(p, pw, tag, blockBytes, pw, tag); err != nil {
			return fmt.Errorf("mpi: alltoall round %d: %w", round, err)
		}
	}
	return nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Barrier is a zero-byte dissemination barrier over the communicator's
// BTLs (unlike Job.Barrier, which uses the OOB channel).
func (c *Comm) Barrier(p *sim.Proc, r *Rank) error {
	n := len(c.ranks)
	me := c.me(r)
	tag := c.tag(me)
	for dist := 1; dist < n; dist <<= 1 {
		dst := c.ranks[(me+dist)%n].id
		src := c.ranks[(me-dist+n)%n].id
		if err := r.Send(p, dst, tag, 1); err != nil {
			return fmt.Errorf("mpi: barrier send: %w", err)
		}
		if _, err := r.Recv(p, src, tag); err != nil {
			return fmt.Errorf("mpi: barrier recv: %w", err)
		}
	}
	return nil
}

// Bcast broadcasts bytes from world rank root (MPI_COMM_WORLD).
func (r *Rank) Bcast(p *sim.Proc, root int, bytes float64) error {
	return r.job.world.Bcast(p, r, root, bytes)
}

// Reduce combines bytes from every rank at world rank root.
func (r *Rank) Reduce(p *sim.Proc, root int, bytes float64) error {
	return r.job.world.Reduce(p, r, root, bytes)
}

// Allreduce is a world Reduce to rank 0 followed by Bcast.
func (r *Rank) Allreduce(p *sim.Proc, bytes float64) error {
	return r.job.world.Allreduce(p, r, bytes)
}

// BarrierColl is a world dissemination barrier over the BTLs.
func (r *Rank) BarrierColl(p *sim.Proc) error { return r.job.world.Barrier(p, r) }

// Alltoall exchanges blockBytes with every other rank of the world.
func (r *Rank) Alltoall(p *sim.Proc, blockBytes float64) error {
	return r.job.world.Alltoall(p, r, blockBytes)
}
