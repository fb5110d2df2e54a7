package sim

// PS is a processor-sharing resource: a server with a total capacity
// (work units per simulated second) shared equally among all active jobs,
// optionally with a per-job rate cap. It models both CPUs under contention
// (capacity = cores, per-job cap = 1 core) and network pipes with fair
// sharing (capacity = bandwidth).
//
// Internally PS runs on virtual-time accounting: because every active job
// receives the same instantaneous rate, the cumulative per-job service
// ("virtual work") advances identically for all of them. A job joining
// when the accumulator reads V with amount A finishes when the accumulator
// reaches V+A, so jobs complete in a fixed (finish tag, arrival seq) order
// held in a min-heap. Clock advancement is O(1), completion is O(log K)
// for K concurrent jobs — no per-job rescans.
type PS struct {
	k          *Kernel
	capacity   float64 // units per second
	perJobCap  float64 // max units per second per job; <=0 means unlimited
	background float64 // capacity-consuming load with no completion (spinners)
	virtual    float64 // cumulative per-job service since creation
	seq        uint64  // arrival order tie-break for equal finish tags
	jobs       []*psJob
	freeJobs   []*psJob // recycled psJob structs
	lastUpdate Time
	pending    Event
	onFire     func() // preallocated completion callback
}

type psJob struct {
	finish float64 // virtual-time finish tag: virtual at join + amount
	seq    uint64
	fut    *Future[struct{}] // ServeAsync's future, or nil
	p      *Proc             // the process parked on it in Serve, or nil
	done   bool              // completed; cleared when the job is recycled
}

const psEpsilon = 1e-6

// NewPS returns a processor-sharing resource. capacity must be positive;
// perJobCap <= 0 means a job may consume the whole capacity when alone.
func NewPS(k *Kernel, capacity, perJobCap float64) *PS {
	if capacity <= 0 {
		panic("sim: NewPS with non-positive capacity")
	}
	ps := &PS{
		k:          k,
		capacity:   capacity,
		perJobCap:  perJobCap,
		lastUpdate: k.Now(),
	}
	ps.onFire = func() {
		ps.pending = Event{}
		ps.update()
		ps.replan()
	}
	return ps
}

// Load returns the number of active jobs.
func (ps *PS) Load() int { return len(ps.jobs) }

// Capacity returns the total capacity in units per second.
func (ps *PS) Capacity() float64 { return ps.capacity }

// SetCapacity changes the total capacity, re-planning active jobs.
func (ps *PS) SetCapacity(c float64) {
	if c <= 0 {
		panic("sim: SetCapacity with non-positive capacity")
	}
	ps.update()
	ps.capacity = c
	ps.replan()
}

// AddBackground adjusts the background load: capacity-consuming work that
// never completes, such as busy-polling vCPUs. Background load takes an
// equal processor share but produces nothing, slowing real jobs.
func (ps *PS) AddBackground(delta float64) {
	ps.update()
	ps.background += delta
	if ps.background < 0 {
		// Paired add/remove deltas need not cancel exactly in floating
		// point; absorb the rounding residue, but reject real misuse.
		if ps.background < -psEpsilon {
			panic("sim: negative PS background load")
		}
		ps.background = 0
	}
	ps.replan()
}

// Background returns the current background load.
func (ps *PS) Background() float64 { return ps.background }

// rate returns the per-job service rate right now.
func (ps *PS) rate() float64 {
	n := len(ps.jobs)
	if n == 0 {
		return 0
	}
	r := ps.capacity / (float64(n) + ps.background)
	if ps.perJobCap > 0 && r > ps.perJobCap {
		r = ps.perJobCap
	}
	return r
}

// update advances the virtual-work accumulator to the current time.
func (ps *PS) update() {
	now := ps.k.Now()
	if now == ps.lastUpdate {
		return
	}
	elapsed := (now - ps.lastUpdate).Seconds()
	if r := ps.rate(); r > 0 {
		ps.virtual += r * elapsed
	}
	ps.lastUpdate = now
}

// replan completes any finished jobs and schedules the next completion.
func (ps *PS) replan() {
	ps.pending.Cancel()
	ps.pending = Event{}
	for len(ps.jobs) > 0 && ps.jobs[0].finish-ps.virtual <= psEpsilon {
		j := ps.popJob()
		fut, p := j.fut, j.p
		j.fut, j.p, j.done = nil, nil, true
		ps.freeJobs = append(ps.freeJobs, j)
		if p != nil {
			ps.k.Schedule(0, p.wake)
		} else if fut != nil {
			fut.Set(struct{}{})
		}
	}
	if len(ps.jobs) == 0 {
		return
	}
	r := ps.rate()
	if r <= 0 {
		// Stalled: capacity is fully absorbed by background load (or has
		// underflowed to a zero per-job rate). No completion can happen
		// until SetCapacity or AddBackground replans, so schedule nothing
		// rather than dividing by zero into Inf/NaN deadlines.
		return
	}
	dt := FromSeconds((ps.jobs[0].finish - ps.virtual) / r).SaturatingAdd(1) // +1ns guards against rounding short
	if dt >= MaxTime {
		return // effectively stalled; a later capacity change replans
	}
	ps.pending = ps.k.Schedule(dt, ps.onFire)
}

// pushJob adds j to the completion-order min-heap.
func (ps *PS) pushJob(j *psJob) {
	ps.jobs = append(ps.jobs, j)
	i := len(ps.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !psLess(ps.jobs[i], ps.jobs[parent]) {
			break
		}
		ps.jobs[i], ps.jobs[parent] = ps.jobs[parent], ps.jobs[i]
		i = parent
	}
}

// popJob removes and returns the next job to complete.
func (ps *PS) popJob() *psJob {
	j := ps.jobs[0]
	last := len(ps.jobs) - 1
	ps.jobs[0] = ps.jobs[last]
	ps.jobs[last] = nil
	ps.jobs = ps.jobs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(ps.jobs) && psLess(ps.jobs[l], ps.jobs[smallest]) {
			smallest = l
		}
		if r < len(ps.jobs) && psLess(ps.jobs[r], ps.jobs[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		ps.jobs[i], ps.jobs[smallest] = ps.jobs[smallest], ps.jobs[i]
		i = smallest
	}
	return j
}

func psLess(a, b *psJob) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

// join queues a job of the given positive amount of work without
// replanning.
func (ps *PS) join(amount float64) *psJob {
	ps.update()
	var j *psJob
	if n := len(ps.freeJobs); n > 0 {
		j = ps.freeJobs[n-1]
		ps.freeJobs = ps.freeJobs[:n-1]
	} else {
		j = &psJob{}
	}
	j.finish, j.seq, j.done = ps.virtual+amount, ps.seq, false
	ps.pushJob(j)
	ps.seq++
	return j
}

// ServeAsync submits a job of the given amount of work and returns a future
// that resolves when the job completes. A non-positive amount completes
// immediately.
func (ps *PS) ServeAsync(amount float64) *Future[struct{}] {
	fut := NewFuture[struct{}](ps.k)
	if amount <= 0 {
		fut.Set(struct{}{})
		return fut
	}
	ps.join(amount).fut = fut
	ps.replan()
	return fut
}

// Serve submits a job and blocks the process until it completes. The
// process parks on the job itself, and replan wakes it where ServeAsync
// would resolve the future; a job that completes within its own replan
// does not park.
func (ps *PS) Serve(p *Proc, amount float64) {
	if amount <= 0 {
		return
	}
	j := ps.join(amount)
	ps.replan()
	if !j.done {
		j.p = p
		p.park()
	}
}
