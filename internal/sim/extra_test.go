package sim

import (
	"testing"
	"testing/quick"
)

// Property: a Chan preserves FIFO order for any burst of sends, with any
// buffer capacity.
func TestChanFIFOProperty(t *testing.T) {
	f := func(capRaw, nRaw uint8) bool {
		capacity := int(capRaw % 5)
		n := int(nRaw%20) + 1
		k := NewKernel()
		ch := NewChan[int](k, capacity)
		var got []int
		k.Go("sender", func(p *Proc) {
			for i := 0; i < n; i++ {
				ch.Send(p, i)
			}
		})
		k.Go("receiver", func(p *Proc) {
			for i := 0; i < n; i++ {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		k.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPSBackgroundSlowsJobs(t *testing.T) {
	// 1 job + 7 background spinners on 8 cores: full speed (each spinner
	// has its own core). 1 job + 15 spinners: rate 8/16 = 0.5.
	k := NewKernel()
	ps := NewPS(k, 8, 1)
	ps.AddBackground(7)
	var firstDone Time
	k.Go("j1", func(p *Proc) {
		ps.Serve(p, 10)
		firstDone = p.Now()
	})
	k.Run()
	if firstDone < 9900*Millisecond || firstDone > 10100*Millisecond {
		t.Fatalf("with 7 spinners on 8 cores: %v, want ~10s", firstDone)
	}
	ps.AddBackground(8) // now 15 spinners
	var secondDone Time
	start := k.Now()
	k.Go("j2", func(p *Proc) {
		ps.Serve(p, 10)
		secondDone = p.Now() - start
	})
	k.Run()
	if secondDone < 19*Second || secondDone > 21*Second {
		t.Fatalf("with 15 spinners: %v, want ~20s", secondDone)
	}
}

func TestPSBackgroundNegativePanics(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ps.AddBackground(-1)
}

func TestPSBackgroundAccessor(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 4, 1)
	ps.AddBackground(3)
	if ps.Background() != 3 {
		t.Fatalf("Background = %v", ps.Background())
	}
	ps.AddBackground(-3)
	if ps.Background() != 0 {
		t.Fatalf("Background = %v", ps.Background())
	}
}

func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(5*Second, func() { fired = true })
	k.RunUntil(5 * Second)
	if !fired {
		t.Fatal("event at the deadline should fire")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(Second, func() {})
	k.Run()
	if ev.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestScheduleOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Schedule(0, func() {})
}

func TestProcNameAndKernelAccessors(t *testing.T) {
	k := NewKernel()
	k.Go("worker", func(p *Proc) {
		if p.Name() != "worker" || p.Kernel() != k || p.Now() != 0 {
			t.Error("accessors broken")
		}
	})
	k.Run()
}

// Property: WaitGroup with arbitrary add/done interleavings releases the
// waiter exactly when the count returns to zero.
func TestWaitGroupProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		k := NewKernel()
		wg := NewWaitGroup(k)
		wg.Add(n)
		var doneAt Time
		for i := 1; i <= n; i++ {
			i := i
			k.Go("w", func(p *Proc) {
				p.Sleep(Time(i) * Second)
				wg.Done()
			})
		}
		k.Go("waiter", func(p *Proc) {
			wg.Wait(p)
			doneAt = p.Now()
		})
		k.Run()
		return doneAt == Time(n)*Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSaturatingAdd(t *testing.T) {
	if MaxTime.SaturatingAdd(1) != MaxTime {
		t.Fatal("positive overflow should saturate at MaxTime")
	}
	if Time(-MaxTime).SaturatingAdd(-2) != 0 {
		t.Fatal("negative overflow should clamp to 0")
	}
	if Time(5).SaturatingAdd(3) != 8 {
		t.Fatal("plain addition broken")
	}
}

func TestTimeStringExtremes(t *testing.T) {
	// Regression: formatting MinInt64 used to recurse infinitely.
	if got := Time(-1 << 63).String(); got != "-∞" {
		t.Fatalf("MinInt64 = %q", got)
	}
	if got := (-MaxTime).String(); got != "-∞" {
		t.Fatalf("-MaxTime = %q", got)
	}
}

func TestPSVerySlowJobDoesNotOverflow(t *testing.T) {
	// Regression: a nearly-stalled job's completion estimate used to wrap
	// past MaxTime and panic in Schedule.
	k := NewKernel()
	ps := NewPS(k, 1e-6, 0) // glacial capacity
	done := false
	ps.ServeAsync(1e15).OnDone(func(struct{}) { done = true })
	k.RunUntil(Hour)
	if done {
		t.Fatal("job cannot have finished")
	}
}
