package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Comm is a communicator: an ordered subset of the job's ranks with its
// own collective context (tag space and sequence counters), like an
// MPI_Comm derived from MPI_COMM_WORLD. Real NPB kernels run their
// transposes and reductions over row/column communicators of a process
// grid; Comm makes those patterns expressible.
type Comm struct {
	job   *Job
	id    int
	ranks []*Rank     // members, in communicator rank order
	index map[int]int // world rank → comm rank
	seq   map[int]int // per-member collective sequence counter
}

// World returns the communicator containing every rank, in world order.
func (j *Job) World() *Comm { return j.NewComm(nil) }

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
	c := &Comm{
		job:   j,
		id:    j.nextCommID,
		index: make(map[int]int),
		seq:   make(map[int]int),
	}
	j.nextCommID++
	for _, wr := range worldRanks {
		if wr < 0 || wr >= len(j.ranks) {
			panic(fmt.Sprintf("mpi: NewComm with world rank %d out of range", wr))
		}
		if _, dup := c.index[wr]; dup {
			continue
		}
		c.index[wr] = len(c.ranks)
		c.ranks = append(c.ranks, j.ranks[wr])
	}
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
	i, ok := c.index[r.id]
	return i, ok
}

// WorldRank returns the world rank of communicator rank i.
func (c *Comm) WorldRank(i int) int { return c.ranks[i].id }

// tag allocates the next collective tag for member r. Because collectives
// are bulk-synchronous within a communicator, per-member counters stay
// aligned; communicator IDs keep concurrent communicators' traffic apart.
func (c *Comm) tag(r *Rank) int {
	t := collTagBase + (c.id<<14|c.seq[r.id]%4096)<<1 + 1
	c.seq[r.id]++
	return t
}

func (c *Comm) me(r *Rank) int {
	i, ok := c.index[r.id]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d is not a member of this communicator", r.id))
	}
	return i
}

// Send sends bytes to communicator rank dst.
func (c *Comm) Send(p *sim.Proc, r *Rank, dst, tag int, bytes float64) error {
	if dst < 0 || dst >= len(c.ranks) {
		return fmt.Errorf("%w: comm send to %d", ErrRankRange, dst)
	}
	return r.Send(p, c.ranks[dst].id, tag, bytes)
}

// Recv receives from communicator rank src (AnySource allowed).
func (c *Comm) Recv(p *sim.Proc, r *Rank, src, tag int) (float64, error) {
	if src == AnySource {
		return r.Recv(p, AnySource, tag)
	}
	if src < 0 || src >= len(c.ranks) {
		return 0, fmt.Errorf("%w: comm recv from %d", ErrRankRange, src)
	}
	return r.Recv(p, c.ranks[src].id, tag)
}

// Bcast broadcasts bytes from communicator rank root via a binomial tree.
func (c *Comm) Bcast(p *sim.Proc, r *Rank, root int, bytes float64) error {
	n := len(c.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: comm bcast root %d", ErrRankRange, root)
	}
	tag := c.tag(r)
	me := c.me(r)
	vr := (me - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent := c.ranks[(vr-mask+root)%n].id
			if _, err := r.Recv(p, parent, tag); err != nil {
				return fmt.Errorf("mpi: comm bcast recv: %w", err)
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
				return fmt.Errorf("mpi: comm bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce combines bytes at communicator rank root via a binomial tree.
func (c *Comm) Reduce(p *sim.Proc, r *Rank, root int, bytes float64) error {
	n := len(c.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: comm reduce root %d", ErrRankRange, root)
	}
	tag := c.tag(r)
	me := c.me(r)
	vr := (me - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask == 0 {
			if vr+mask < n {
				child := c.ranks[(vr+mask+root)%n].id
				if _, err := r.Recv(p, child, tag); err != nil {
					return fmt.Errorf("mpi: comm reduce recv: %w", err)
				}
				r.Compute(p, bytes/reduceBandwidth)
			}
		} else {
			parent := c.ranks[(vr-mask+root)%n].id
			if err := r.Send(p, parent, tag, bytes); err != nil {
				return fmt.Errorf("mpi: comm reduce send: %w", err)
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

// Alltoall exchanges blockBytes pairwise among the communicator's members.
func (c *Comm) Alltoall(p *sim.Proc, r *Rank, blockBytes float64) error {
	n := len(c.ranks)
	tag := c.tag(r)
	me := c.me(r)
	for round := 1; round < nextPow2(n); round++ {
		partner := me ^ round
		if partner >= n {
			continue
		}
		pw := c.ranks[partner].id
		if _, err := r.Sendrecv(p, pw, tag, blockBytes, pw, tag); err != nil {
			return fmt.Errorf("mpi: comm alltoall round %d: %w", round, err)
		}
	}
	return nil
}

// Barrier is a zero-byte dissemination barrier over the communicator.
func (c *Comm) Barrier(p *sim.Proc, r *Rank) error {
	n := len(c.ranks)
	tag := c.tag(r)
	me := c.me(r)
	for dist := 1; dist < n; dist <<= 1 {
		dst := c.ranks[(me+dist)%n].id
		src := c.ranks[(me-dist+n)%n].id
		if err := r.Send(p, dst, tag, 1); err != nil {
			return fmt.Errorf("mpi: comm barrier send: %w", err)
		}
		if _, err := r.Recv(p, src, tag); err != nil {
			return fmt.Errorf("mpi: comm barrier recv: %w", err)
		}
	}
	return nil
}
