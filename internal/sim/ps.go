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
//
// A PS also serves chains (see ServeChain): runs of equal jobs whose
// intermediate completions it replays arithmetically instead of queueing
// kernel events for them.
type PS struct {
	k          *Kernel
	capacity   float64 // units per second
	perJobCap  float64 // max units per second per job; <=0 means unlimited
	background float64 // capacity-consuming load with no completion (spinners)
	jobs       []*psJob
	freeJobs   []*psJob // recycled psJob structs
	pending    Event
	pendingAt  Time   // when pending fires; MaxTime if nothing is queued
	onFire     func() // preallocated completion callback
	psTrack

	// rejoins holds the chains popped at lastUpdate whose next quantum has
	// yet to join, in pop order; realSeq is the kernel seq at the last
	// replan that really ran. ahead is the state nextEvent replayed to,
	// just before pendingAt, if aheadOK.
	rejoins []psRejoin
	realSeq uint64
	ahead   psTrack
	aheadOK bool
}

// psTrack is the state that replaying chain completions moves: the
// virtual-work accumulator, its clock, the arrival counter, the place
// where the eager loop would have queued its next completion event, and
// the quantum each chain has in service, sorted by (finish, seq).
type psTrack struct {
	virtual    float64 // cumulative per-job service since creation
	lastUpdate Time
	seq        uint64 // arrival order tie-break for equal finish tags
	plan       place
	links      []psLink
}

type psJob struct {
	finish float64 // virtual-time finish tag: virtual at join + amount
	seq    uint64
	fut    *Future[struct{}] // ServeAsync's future, or nil
	p      *Proc             // the process parked on it in Serve, or nil
	done   bool              // completed; cleared when the job is recycled
}

// Chain is one process's run of equal PS jobs, the form of
// `for i := 0; i < n; i++ { ps.Serve(p, amount) }` that costs no kernel
// event per job. The owner keeps it (a zero Chain is ready to use) and
// passes it to ServeChain; Surface cuts the run short.
type Chain struct {
	ps     *PS
	p      *Proc
	served int
}

// psLink is a chain's quantum in service.
type psLink struct {
	c      *Chain
	finish float64
	seq    uint64
	amount float64
	left   int  // quanta still to join after this one
	served int  // quanta completed before this one
	cut    bool // Surface was called: the process wakes when this one completes
}

// psRejoin is a popped chain quantum waiting for the eager loop's wake-up
// that would join the next one, which sits at place at. direct means a
// real event popped it.
type psRejoin struct {
	l      psLink
	direct bool
	at     place
}

// psHorizon caps how many virtual completions nextEvent replays ahead: a
// chain costs one kernel event per psHorizon quanta, and an operation on
// a PS with chains at most 2·psHorizon replay steps (DESIGN §8 has the
// measurement behind the value).
const psHorizon = 512

const psEpsilon = 1e-6

// NewPS returns a processor-sharing resource. capacity must be positive;
// perJobCap <= 0 means a job may consume the whole capacity when alone.
func NewPS(k *Kernel, capacity, perJobCap float64) *PS {
	if capacity <= 0 {
		panic("sim: NewPS with non-positive capacity")
	}
	ps := &PS{
		k:         k,
		capacity:  capacity,
		perJobCap: perJobCap,
		pendingAt: MaxTime,
		psTrack:   psTrack{lastUpdate: k.Now()},
	}
	ps.onFire = func() {
		ps.pending = Event{}
		ps.sync()
		ps.pendingAt = MaxTime
		ps.update()
		ps.replan()
	}
	return ps
}

// Load returns the number of active jobs.
func (ps *PS) Load() int {
	ps.sync()
	return len(ps.jobs) + len(ps.links)
}

// Capacity returns the total capacity in units per second.
func (ps *PS) Capacity() float64 { return ps.capacity }

// SetCapacity changes the total capacity, re-planning active jobs.
func (ps *PS) SetCapacity(c float64) {
	if c <= 0 {
		panic("sim: SetCapacity with non-positive capacity")
	}
	ps.sync()
	ps.update()
	ps.capacity = c
	ps.replan()
}

// AddBackground adjusts the background load: capacity-consuming work that
// never completes, such as busy-polling vCPUs. Background load takes an
// equal processor share but produces nothing, slowing real jobs.
func (ps *PS) AddBackground(delta float64) {
	ps.sync()
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
func (ps *PS) rate() float64 { return ps.rateFor(len(ps.jobs) + len(ps.links)) }

// rateFor returns the per-job service rate with n active jobs.
func (ps *PS) rateFor(n int) float64 {
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
func (ps *PS) update() { ps.advance(ps.k.Now()) }

// advance moves the virtual-work accumulator to time t.
func (ps *PS) advance(t Time) {
	if t == ps.lastUpdate {
		return
	}
	elapsed := (t - ps.lastUpdate).Seconds()
	if r := ps.rate(); r > 0 {
		ps.virtual += r * elapsed
	}
	ps.lastUpdate = t
}

// replan completes any finished jobs and schedules the next completion.
// It stands for the eager loop's own replan, so it also moves the plan.
func (ps *PS) replan() {
	ps.pending.Cancel()
	ps.pending, ps.pendingAt = Event{}, MaxTime
	for {
		var j *psJob
		if len(ps.jobs) > 0 && ps.jobs[0].finish-ps.virtual <= psEpsilon {
			j = ps.jobs[0]
		}
		if len(ps.links) > 0 && ps.links[0].finish-ps.virtual <= psEpsilon &&
			(j == nil || linkFirst(&ps.links[0], j)) {
			ps.popLink(true)
			continue
		}
		if j == nil {
			break
		}
		ps.popJob()
		fut, p := j.fut, j.p
		j.fut, j.p, j.done = nil, nil, true
		ps.freeJobs = append(ps.freeJobs, j)
		if p != nil {
			ps.k.Schedule(0, p.wake)
		} else if fut != nil {
			fut.Set(struct{}{})
		}
	}
	ps.realSeq = ps.k.seq
	ps.plan = ps.k.here()
	ps.reschedule()
}

// reschedule points the PS's one kernel event at the next completion that
// needs one, at the place its eager counterpart would have had.
func (ps *PS) reschedule() {
	at, where, ok := ps.nextEvent()
	if ok && at == ps.pendingAt && ps.pending.Pending() {
		return
	}
	ps.pending.Cancel()
	ps.pending, ps.pendingAt = Event{}, MaxTime
	if !ok {
		return
	}
	ps.pending = ps.k.schedulePlaced(at-ps.k.now, ps.onFire, where)
	ps.pendingAt = at
}

// nextCompletion returns when the eager loop's completion event for the
// current state would fire; ok is false when the PS is stalled.
func (ps *PS) nextCompletion() (at Time, ok bool) {
	r := ps.rate()
	if r <= 0 {
		// Stalled: capacity is fully absorbed by background load (or has
		// underflowed to a zero per-job rate). No completion can happen
		// until SetCapacity or AddBackground replans, so schedule nothing
		// rather than dividing by zero into Inf/NaN deadlines.
		return 0, false
	}
	return ps.next(ps.jobs, r)
}

// next returns when the eager loop's completion event for state s, with
// jobs also in service at per-job rate r, would fire.
func (s *psTrack) next(jobs []*psJob, r float64) (at Time, ok bool) {
	f := nextFinish(jobs, s.links)
	dt := FromSeconds((f - s.virtual) / r).SaturatingAdd(1) // +1ns guards against rounding short
	if dt >= MaxTime {
		return 0, false // effectively stalled; a later capacity change replans
	}
	return s.lastUpdate.SaturatingAdd(dt), true
}

// nextFinish is the smaller finish tag of the heap top and the first
// link: that of the next job to complete.
func nextFinish(jobs []*psJob, links []psLink) float64 {
	switch {
	case len(links) == 0:
		return jobs[0].finish
	case len(jobs) == 0 || links[0].finish < jobs[0].finish:
		return links[0].finish
	}
	return jobs[0].finish
}

// replay moves s through the completion event at time at, with jobs also
// in service at per-job rate r, if only chain quanta with more to follow
// complete there: it pops them and joins their successors in pop order,
// as their wake-ups would. It reports false, leaving s as it was, if the
// completion needs a real event.
func (s *psTrack) replay(jobs []*psJob, r float64, at Time, realSeq uint64) bool {
	v := s.virtual + r*(at-s.lastUpdate).Seconds()
	if len(jobs) > 0 && jobs[0].finish-v <= psEpsilon {
		return false
	}
	ls := s.links
	n := 0
	for n < len(ls) && ls[n].finish-v <= psEpsilon {
		if ls[n].left == 0 || ls[n].cut {
			return false
		}
		n++
	}
	s.virtual, s.lastUpdate = v, at
	for i := 0; i < n; i++ {
		l := &ls[i]
		l.finish, l.seq, l.left, l.served = v+l.amount, s.seq, l.left-1, l.served+1
		s.seq++
	}
	// (finish, seq) is a total order, so sorting puts each rejoined
	// quantum where insertLink would have.
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && linkLess(&ls[j], &ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	s.plan = latePlace(at, realSeq)
	return true
}

// nextEvent replays the chains from the current state to the first
// completion that needs a kernel event: a plain job's, a chain's last or
// cut quantum's, or the psHorizon-th replayed one. It returns that instant
// and the place of the eager completion event for it, and keeps the state
// just before it in ps.ahead.
func (ps *PS) nextEvent() (at Time, where place, ok bool) {
	ps.aheadOK = false
	if len(ps.links) == 0 && len(ps.rejoins) == 0 {
		at, ok = ps.nextCompletion()
		return at, ps.plan, ok
	}
	a := &ps.ahead
	links := append(a.links[:0], ps.links...)
	*a = ps.psTrack
	a.links = links
	for i := range ps.rejoins {
		a.rejoin(&ps.rejoins[i], ps.realSeq)
	}
	r := ps.rateFor(len(ps.jobs) + len(a.links))
	if r <= 0 {
		return 0, place{}, false
	}
	for step := 0; ; step++ {
		if at, ok = a.next(ps.jobs, r); !ok {
			return 0, place{}, false
		}
		if step == psHorizon || !a.replay(ps.jobs, r, at, ps.realSeq) {
			ps.aheadOK = true
			return at, a.plan, true
		}
	}
}

// sync replays the chains' virtual completions and wake-ups up to the
// running event: those before the current instant, and those of this
// instant the eager loop would have run before it.
func (ps *PS) sync() {
	if len(ps.links) == 0 && len(ps.rejoins) == 0 {
		return
	}
	now, here := ps.k.now, ps.k.curPlace()
	for {
		for len(ps.rejoins) > 0 {
			if ps.lastUpdate == now && !ps.rejoins[0].at.less(here) {
				return
			}
			ps.rejoin(&ps.rejoins[0], ps.realSeq)
			ps.rejoins = append(ps.rejoins[:0], ps.rejoins[1:]...)
		}
		if len(ps.links) == 0 {
			return
		}
		if a := &ps.ahead; ps.aheadOK && ps.lastUpdate < a.lastUpdate && a.lastUpdate < now {
			links := append(ps.links[:0], a.links...)
			ps.psTrack = *a
			ps.links = links
			continue
		}
		r := ps.rate()
		if r <= 0 {
			return
		}
		at, ok := ps.next(ps.jobs, r)
		if !ok || at > now || at >= ps.pendingAt || at == now && !ps.plan.less(here) {
			return
		}
		if at < now && ps.replay(ps.jobs, r, at, ps.realSeq) {
			continue
		}
		ps.advance(at)
		for len(ps.links) > 0 && ps.links[0].finish-ps.virtual <= psEpsilon {
			ps.popLink(false)
		}
		if at == now {
			// The wake-ups are children of the virtual completion event
			// at place ps.plan: they precede whatever the events after it
			// scheduled.
			for i := range ps.rejoins {
				ps.rejoins[i].at = ps.k.gapAfter(ps.plan, i)
			}
		}
	}
}

// popLink completes the first link. A chain with quanta left waits for its
// rejoin; a finished or cut one wakes its process.
func (ps *PS) popLink(direct bool) {
	l := ps.links[0]
	ps.links = append(ps.links[:0], ps.links[1:]...)
	l.served++
	if l.left == 0 || l.cut {
		c := l.c
		p := c.p
		c.ps, c.p, c.served = nil, nil, l.served
		ps.k.Schedule(0, p.wake)
		return
	}
	rj := psRejoin{l: l, direct: direct}
	if direct {
		// Wake-ups that would have taken consecutive seqs share one gap
		// and keep their pop order in it.
		var prev *place
		if n := len(ps.rejoins); n > 0 {
			prev = &ps.rejoins[n-1].at
		}
		rj.at = ps.k.gapHere(prev)
	}
	ps.rejoins = append(ps.rejoins, rj)
}

// rejoin joins rj's next quantum, as its eager wake-up would.
func (s *psTrack) rejoin(rj *psRejoin, realSeq uint64) {
	l := rj.l
	l.finish, l.seq, l.left = s.virtual+l.amount, s.seq, l.left-1
	s.seq++
	s.links = insertLink(s.links, l)
	s.plan = rj.at
	if !rj.direct {
		s.plan = latePlace(s.lastUpdate, realSeq)
	}
}

func linkFirst(l *psLink, j *psJob) bool {
	return l.finish < j.finish || l.finish == j.finish && l.seq < j.seq
}

func linkLess(a, b *psLink) bool {
	return a.finish < b.finish || a.finish == b.finish && a.seq < b.seq
}

// insertLink adds l, whose seq is the newest, keeping (finish, seq) order.
func insertLink(links []psLink, l psLink) []psLink {
	links = append(links, l)
	i := len(links) - 1
	for i > 0 && links[i-1].finish > l.finish {
		links[i] = links[i-1]
		i--
	}
	links[i] = l
	return links
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
	ps.sync()
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
	if !ps.Submit(p, amount) {
		p.Park()
	}
}

// Submit is Serve's registration: it submits a job of amount for w and
// reports whether the job completed at once (a non-positive amount, or
// one done within its own replan); otherwise w is woken when it
// completes.
func (ps *PS) Submit(w *Proc, amount float64) bool {
	if amount <= 0 {
		return true
	}
	j := ps.join(amount)
	ps.replan()
	if j.done {
		return true
	}
	j.p = w
	return false
}

// ServeChain serves n jobs of amount one after another for p, exactly as
// n calls of Serve would, and returns how many completed: n, or fewer if
// c.Surface cut the run short. The process parks once; the completions in
// between are replayed from the PS's own arithmetic when something needs
// the state (another operation on the PS, or the PS's one kernel event),
// so every completion instant, virtual-time reading and wake-up order
// matches the Serve loop's. While the chain runs, c is bound to this PS.
func (ps *PS) ServeChain(p *Proc, c *Chain, n int, amount float64) int {
	if n <= 0 {
		return 0
	}
	if amount <= psEpsilon {
		// Completes within its own replan: nothing to chain.
		ps.Serve(p, amount)
		return 1
	}
	ps.sync()
	ps.update()
	c.ps, c.p = ps, p
	ps.links = insertLink(ps.links, psLink{c: c, finish: ps.virtual + amount, seq: ps.seq, amount: amount, left: n - 1})
	ps.seq++
	ps.replan()
	p.Park()
	return c.served
}

// Surface makes the chain's process wake when its quantum in service
// completes, where the Serve loop would next look at its condition. It is
// a no-op on a chain that is not running.
func (c *Chain) Surface() {
	ps := c.ps
	if ps == nil {
		return
	}
	ps.sync()
	for i := range ps.links {
		if l := &ps.links[i]; l.c == c {
			if !l.cut && l.left > 0 {
				l.cut = true
				ps.reschedule()
			}
			return
		}
	}
	for i := range ps.rejoins {
		if ps.rejoins[i].l.c == c {
			// Popped, and the wake-up that would join the next quantum
			// is still to come this instant: wake the process instead.
			rj := ps.rejoins[i]
			ps.rejoins = append(ps.rejoins[:i], ps.rejoins[i+1:]...)
			p := c.p
			c.ps, c.p, c.served = nil, nil, rj.l.served
			ps.k.schedulePlaced(0, p.wake, rj.at)
			ps.reschedule()
			return
		}
	}
}
