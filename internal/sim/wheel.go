package sim

import (
	"container/heap"
	"math/bits"
)

// wheelQueue is a hierarchical timer wheel: wheelLevels wheels of
// wheelSlots slots each, with slot width 64^level nanoseconds, indexed by
// absolute fire time. Level 0 has 1 ns slots, so every event in a level-0
// slot of the current window shares an exact timestamp; coarser slots are
// cascaded down as the cursor reaches them. Events further than 2^48 ns
// (~3.3 simulated days) ahead of the cursor wait in an overflow heap and
// migrate into the wheel once the cursor gets near.
//
// Schedule and Cancel are O(1): slot chains are doubly linked, so a
// cancelled event is unlinked and recycled immediately — watchdog-style
// workloads (arm a long timeout, cancel it moments later) never park dead
// events in coarse slots. Event structs are pooled on a free list; a
// recycled struct's seq ticket invalidates stale handles.
//
// The invariant load-bearing for correctness: an event is inserted at the
// lowest level whose slot width covers its distance from the cursor, so a
// level-l slot, at the moment the cursor enters its window, only holds
// events that still need l more levels of cascading. The oracle test
// (oracle_test.go) checks trace-identical execution against a naive
// sorted-slice executor.
const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits // 64
	wheelMask     = wheelSlots - 1
	wheelLevels   = 8
	wheelSpanBits = wheelBits * wheelLevels // 48
	wheelSpan     = Time(1) << wheelSpanBits
)

// Location tags for event.lvl beyond the wheel levels proper.
const (
	lvlOverflow uint8 = 0xFF // in the overflow heap (event.index valid)
	lvlReady    uint8 = 0xFE // in the ready chain (singly linked)
)

type wheelQueue struct {
	cur      Time // lower bound on every queued event's fire time
	n        int  // pending (non-cancelled) events across wheel+overflow+ready
	head     [wheelLevels][wheelSlots]*event
	tail     [wheelLevels][wheelSlots]*event
	occ      [wheelLevels]uint64 // per-level slot occupancy bitmaps
	ready    *event              // extracted same-instant batch, sorted by place
	readyEnd *event              // last event of the ready chain
	overflow eventHeap           // events >= wheelSpan ahead of cur
	free     *event              // event struct pool
}

// alloc returns a blank event struct, recycled from the pool if it can.
func (q *wheelQueue) alloc() *event {
	if ev := q.free; ev != nil {
		q.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{}
}

func (q *wheelQueue) freeEvent(ev *event) {
	ev.fn = nil
	ev.prev = nil
	ev.state = stateFree
	ev.next = q.free
	q.free = ev
}

func (q *wheelQueue) schedule(ev *event) {
	q.n++
	q.insert(ev)
}

// insert places ev relative to the current cursor. Precondition: ev.at >=
// q.cur (the kernel clock never trails the cursor).
func (q *wheelQueue) insert(ev *event) {
	d := ev.at - q.cur
	var l int
	if d > 0 {
		l = (bits.Len64(uint64(d)) - 1) / wheelBits
	}
	if l >= wheelLevels {
		ev.lvl = lvlOverflow
		ev.prev = nil
		ev.next = nil
		heap.Push(&q.overflow, ev)
		return
	}
	s := int(ev.at>>(uint(l)*wheelBits)) & wheelMask
	ev.lvl = uint8(l)
	ev.slot = uint8(s)
	ev.next = nil
	ev.prev = q.tail[l][s]
	if ev.prev == nil {
		q.head[l][s] = ev
		q.occ[l] |= 1 << uint(s)
	} else {
		ev.prev.next = ev
	}
	q.tail[l][s] = ev
}

// unlink removes ev from its doubly-linked wheel slot.
func (q *wheelQueue) unlink(ev *event) {
	l, s := int(ev.lvl), int(ev.slot)
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		q.head[l][s] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		q.tail[l][s] = ev.prev
	}
	if q.head[l][s] == nil {
		q.occ[l] &^= 1 << uint(s)
	}
	ev.prev = nil
	ev.next = nil
}

// cancel removes a pending event.
func (q *wheelQueue) cancel(ev *event) {
	q.n--
	switch {
	case ev.lvl < wheelLevels:
		q.unlink(ev)
		q.freeEvent(ev)
	case ev.lvl == lvlOverflow:
		heap.Remove(&q.overflow, int(ev.index))
		q.freeEvent(ev)
	default:
		// Ready chain (singly linked): mark and reclaim when served.
		ev.state = stateCancelled
		ev.fn = nil
	}
}

// pop removes and returns the earliest pending event with at <= limit, or
// nil if there is none.
func (q *wheelQueue) pop(limit Time) *event {
	for {
		// Serve the already-extracted exact-time batch first.
		for q.ready != nil {
			ev := q.ready
			if ev.at > limit {
				return nil
			}
			q.ready = ev.next
			if q.ready == nil {
				q.readyEnd = nil
			}
			ev.next = nil
			if ev.state != statePending {
				q.freeEvent(ev)
				continue
			}
			q.n--
			return ev
		}

		// Find the earliest candidate window across all levels. For ties,
		// prefer the coarsest source so same-instant events all funnel into
		// the level-0 slot (and sort by place) before any of them fire.
		best := MaxTime
		bestLevel := -1
		for l := 0; l < wheelLevels; l++ {
			bm := q.occ[l]
			if bm == 0 {
				continue
			}
			shift := uint(l) * wheelBits
			p := int(q.cur>>shift) & wheelMask
			winMask := Time(1)<<(shift+wheelBits) - 1
			base := q.cur &^ winMask
			// Slots at or before the cursor position hold next-wrap events
			// (except level 0's own position, which is exactly "now").
			hiFrom := uint(p) + 1
			if l == 0 {
				hiFrom = uint(p)
			}
			var t Time
			if hi := bm >> hiFrom << hiFrom; hi != 0 {
				s := bits.TrailingZeros64(hi)
				t = base | Time(s)<<shift
			} else {
				lo := bm & (1<<hiFrom - 1)
				s := bits.TrailingZeros64(lo)
				t = base + (winMask + 1) + Time(s)<<shift
			}
			if t <= best {
				best = t
				bestLevel = l
			}
		}

		if len(q.overflow) > 0 && q.overflow[0].at <= best {
			// The overflow heap holds the (tied-)earliest event: migrate its
			// cohort into the wheel. Any wheel event is strictly nearer than
			// cur+wheelSpan, so if the overflow top is out of insertion range
			// the wheel must be empty and the cursor may jump freely.
			ovT := q.overflow[0].at
			if ovT > limit {
				return nil
			}
			if ovT-q.cur >= wheelSpan {
				q.cur = ovT &^ Time(wheelMask)
			}
			for len(q.overflow) > 0 && q.overflow[0].at-q.cur < wheelSpan {
				q.insert(heap.Pop(&q.overflow).(*event))
			}
			continue
		}

		if bestLevel < 0 {
			return nil // empty
		}
		if best > limit {
			return nil
		}
		shift := uint(bestLevel) * wheelBits
		s := int(best>>shift) & wheelMask
		q.cur = best
		if bestLevel == 0 {
			q.extractExact(s)
			continue
		}
		q.cascade(bestLevel, s)
		// Entry cascade: finer slots whose window base ties with the new
		// cursor position would otherwise be misread as next-wrap on the
		// next scan (a level>=1 slot at the cursor's own digit is ambiguous
		// in the bitmap). Drain them top-down; the cascade above never
		// refills them (its events land at digits strictly after the
		// cursor's, which are zero here since best is 64^bestLevel-aligned).
		for l := bestLevel - 1; l >= 1; l-- {
			es := int(best>>(uint(l)*wheelBits)) & wheelMask
			if q.occ[l]&(1<<uint(es)) != 0 {
				q.cascade(l, es)
			}
		}
	}
}

// insertNow queues ev, which fires at the cursor while the ready batch
// is being served, at its place among every event still to fire there.
func (q *wheelQueue) insertNow(ev *event) {
	q.n++
	if s := int(q.cur) & wheelMask; q.occ[0]&(1<<uint(s)) != 0 {
		q.extractExact(s)
	}
	ev.lvl = lvlReady
	q.pushReady(ev)
}

// extractExact drains level-0 slot s (every event in it fires at exactly
// q.cur) into the ready chain, ordered by place.
func (q *wheelQueue) extractExact(s int) {
	ev := q.head[0][s]
	q.head[0][s] = nil
	q.tail[0][s] = nil
	q.occ[0] &^= 1 << uint(s)
	for ev != nil {
		next := ev.next
		if ev.at != q.cur {
			panic("sim: timer wheel level-0 slot holds a mistimed event")
		}
		ev.lvl = lvlReady
		ev.prev = nil
		q.pushReady(ev)
		ev = next
	}
}

// cascade redistributes level-l slot s into finer wheels after the cursor
// advanced to the slot's window base.
func (q *wheelQueue) cascade(l, s int) {
	ev := q.head[l][s]
	q.head[l][s] = nil
	q.tail[l][s] = nil
	q.occ[l] &^= 1 << uint(s)
	for ev != nil {
		next := ev.next
		q.insert(ev)
		ev = next
	}
}

// pushReady inserts ev into the place-sorted ready chain. Slot chains are
// FIFO-appended, so the chain is nearly sorted already: most events append
// at the end, and the rest take an allocation-free insertion.
func (q *wheelQueue) pushReady(ev *event) {
	if q.ready == nil {
		ev.next = nil
		q.ready, q.readyEnd = ev, ev
		return
	}
	if !evLess(ev, q.readyEnd) {
		ev.next = nil
		q.readyEnd.next, q.readyEnd = ev, ev
		return
	}
	if evLess(ev, q.ready) {
		ev.next = q.ready
		q.ready = ev
		return
	}
	p := q.ready
	for p.next != nil && evLess(p.next, ev) {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
}

func (q *wheelQueue) clear() {
	*q = wheelQueue{}
}

// eventHeap is a (at, seq)-ordered binary heap of events; the timer
// wheel keeps its overflow level in one.
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return evLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = int32(len(*h))
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
