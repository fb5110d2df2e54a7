package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// collTagBase keeps collective traffic out of the application tag space.
const collTagBase = 1 << 20

// nextCollTag returns the tag for the rank's next world collective.
// Collectives are bulk-synchronous, so per-rank sequence counters stay
// aligned. World tags are even; communicator tags (Comm.tag) are odd, so
// the two spaces never collide.
func (r *Rank) nextCollTag() int {
	t := collTagBase + (r.collSeq%4096)<<1
	r.collSeq++
	return t
}

// Bcast broadcasts bytes from root using a binomial tree.
func (r *Rank) Bcast(p *sim.Proc, root int, bytes float64) error {
	n := len(r.job.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: bcast root %d", ErrRankRange, root)
	}
	tag := r.nextCollTag()
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent := (vr - mask + root) % n
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
			child := (vr + mask + root) % n
			if err := r.Send(p, child, tag, bytes); err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce combines bytes from all ranks at root using a binomial tree,
// charging reduction-operator compute at each combining step.
func (r *Rank) Reduce(p *sim.Proc, root int, bytes float64) error {
	n := len(r.job.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: reduce root %d", ErrRankRange, root)
	}
	tag := r.nextCollTag()
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask == 0 {
			if vr+mask < n {
				child := (vr + mask + root) % n
				if _, err := r.Recv(p, child, tag); err != nil {
					return fmt.Errorf("mpi: reduce recv: %w", err)
				}
				// Combine the incoming buffer with the local one.
				r.Compute(p, bytes/reduceBandwidth)
			}
		} else {
			parent := (vr - mask + root) % n
			if err := r.Send(p, parent, tag, bytes); err != nil {
				return fmt.Errorf("mpi: reduce send: %w", err)
			}
			break
		}
		mask <<= 1
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (r *Rank) Allreduce(p *sim.Proc, bytes float64) error {
	if err := r.Reduce(p, 0, bytes); err != nil {
		return err
	}
	return r.Bcast(p, 0, bytes)
}

// BarrierColl is a zero-byte dissemination barrier over the BTLs (unlike
// Job.Barrier, which uses the OOB channel).
func (r *Rank) BarrierColl(p *sim.Proc) error {
	n := len(r.job.ranks)
	tag := r.nextCollTag()
	for dist := 1; dist < n; dist <<= 1 {
		dst := (r.id + dist) % n
		src := (r.id - dist + n) % n
		if err := r.Send(p, dst, tag, 1); err != nil {
			return fmt.Errorf("mpi: barrier send: %w", err)
		}
		if _, err := r.Recv(p, src, tag); err != nil {
			return fmt.Errorf("mpi: barrier recv: %w", err)
		}
	}
	return nil
}

// Allgather gathers bytes-per-rank blocks on every rank via the ring
// algorithm: n-1 steps of simultaneous send-right/receive-left.
func (r *Rank) Allgather(p *sim.Proc, blockBytes float64) error {
	n := len(r.job.ranks)
	tag := r.nextCollTag()
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	for step := 0; step < n-1; step++ {
		if _, err := r.Sendrecv(p, right, tag, blockBytes, left, tag); err != nil {
			return fmt.Errorf("mpi: allgather step %d: %w", step, err)
		}
	}
	return nil
}

// Alltoall exchanges blockBytes with every other rank via pairwise
// exchange (XOR schedule; requires power-of-two rank counts for perfect
// pairing, which all paper configurations satisfy, but degrades gracefully
// by skipping out-of-range partners otherwise).
func (r *Rank) Alltoall(p *sim.Proc, blockBytes float64) error {
	n := len(r.job.ranks)
	tag := r.nextCollTag()
	for round := 1; round < nextPow2(n); round++ {
		partner := r.id ^ round
		if partner >= n {
			continue
		}
		if _, err := r.Sendrecv(p, partner, tag, blockBytes, partner, tag); err != nil {
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

// Gather collects blockBytes from every rank at root (linear algorithm,
// as Open MPI's basic component uses for small communicators).
func (r *Rank) Gather(p *sim.Proc, root int, blockBytes float64) error {
	n := len(r.job.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: gather root %d", ErrRankRange, root)
	}
	tag := r.nextCollTag()
	if r.id != root {
		return r.Send(p, root, tag, blockBytes)
	}
	// Root receives from everyone else; any order (AnySource) so early
	// senders don't serialize behind slow ones.
	for i := 0; i < n-1; i++ {
		if _, err := r.Recv(p, AnySource, tag); err != nil {
			return fmt.Errorf("mpi: gather recv: %w", err)
		}
	}
	return nil
}

// Scatter distributes blockBytes from root to every rank (linear).
func (r *Rank) Scatter(p *sim.Proc, root int, blockBytes float64) error {
	n := len(r.job.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: scatter root %d", ErrRankRange, root)
	}
	tag := r.nextCollTag()
	if r.id != root {
		if _, err := r.Recv(p, root, tag); err != nil {
			return fmt.Errorf("mpi: scatter recv: %w", err)
		}
		return nil
	}
	// Non-blocking fan-out: all blocks in flight concurrently.
	var reqs []*Request
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		reqs = append(reqs, r.Isend(i, tag, blockBytes))
	}
	return r.Waitall(p, reqs...)
}

// ReduceScatter reduces blockBytes-per-rank contributions and scatters one
// block to each rank (implemented as Reduce at rank 0 plus Scatter, the
// basic-component strategy).
func (r *Rank) ReduceScatter(p *sim.Proc, blockBytes float64) error {
	n := float64(len(r.job.ranks))
	if err := r.Reduce(p, 0, blockBytes*n); err != nil {
		return err
	}
	return r.Scatter(p, 0, blockBytes)
}
