package sim

import (
	"fmt"
	"strings"
	"testing"
)

// waitChain is a resumable machine over every non-parking registration:
// a sleep, a PS job, a future and a condition variable. step reports
// whether it is done, registering w whenever it must wait, and logs
// where each step runs. promoteAt, if positive, is the step at which a
// waiter promotes itself to a process with GoNow.
type waitChain struct {
	w         *Proc
	isProc    bool
	n         int
	promoteAt int
	ps        *PS
	fut       *Future[struct{}]
	cond      *Cond
	log       *strings.Builder
}

func (m *waitChain) step() bool {
	for {
		if m.promoteAt > 0 && m.n == m.promoteAt && !m.isProc {
			m.w.k.GoNow("promoted", func(p *Proc) {
				m.w, m.isProc = p, true
				for !m.step() {
					p.Park()
				}
			})
			return false
		}
		fmt.Fprintf(m.log, "step %d at %v\n", m.n, m.w.k.Now())
		m.n++
		switch m.n {
		case 1:
			m.w.WakeAfter(Millisecond)
			return false
		case 2:
			if !m.ps.Submit(m.w, 0.5) {
				return false
			}
		case 3:
			if !m.fut.Await(m.w) {
				return false
			}
		case 4:
			m.cond.Await(m.w)
			return false
		case 5:
			if !m.ps.Submit(m.w, 0) { // completes at once
				panic("Submit(0) waited")
			}
		default:
			return true
		}
	}
}

// runWaitChain runs the machine among processes that load the PS, set
// the future and signal the condition, and returns its log and the
// kernel's event counts.
func runWaitChain(drive string) (string, Stats) {
	k := NewKernel()
	defer k.Close()
	var log strings.Builder
	m := &waitChain{ps: NewPS(k, 1, 0), fut: NewFuture[struct{}](k), cond: NewCond(k), log: &log}
	k.Go("load", func(p *Proc) {
		m.ps.Serve(p, 0.3)
		p.Sleep(Second)
		m.fut.Set(struct{}{})
		for m.cond.Waiting() == 0 {
			p.Sleep(100 * Millisecond)
		}
		m.cond.Signal()
	})
	switch drive {
	case "proc":
		k.Go("chain", func(p *Proc) {
			m.w, m.isProc = p, true
			for !m.step() {
				p.Park()
			}
		})
	case "waiter", "promoted":
		if drive == "promoted" {
			m.promoteAt = 3
		}
		m.w = k.Waiter(func() { m.step() })
		m.w.WakeAfter(0) // where k.Go would queue the process's start
	}
	k.Run()
	fmt.Fprintf(&log, "end at %v\n", k.Now())
	return log.String(), k.Stats()
}

// TestWaiterMatchesProc: a machine driven by a waiter's callbacks, or
// promoted from one into a process halfway, schedules exactly the events
// of the same machine run on a process, and its steps run at the same
// instants.
func TestWaiterMatchesProc(t *testing.T) {
	wantLog, want := runWaitChain("proc")
	for _, drive := range []string{"waiter", "promoted"} {
		log, st := runWaitChain(drive)
		if log != wantLog || st != want {
			t.Fatalf("%s: got\n%s%+v\nwant\n%s%+v", drive, log, st, wantLog, want)
		}
	}
}
