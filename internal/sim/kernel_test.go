package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventSize pins the pooled event struct to the 64-byte allocation
// size class on 64-bit platforms: one more field puts every queued event
// in the 80-byte class.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes differ off 64-bit platforms")
	}
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event is %d bytes, want 64", n)
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(3*Second, func() { got = append(got, 3) })
	k.Schedule(1*Second, func() { got = append(got, 1) })
	k.Schedule(2*Second, func() { got = append(got, 2) })
	end := k.Run()
	if end != 3*Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want FIFO", got)
		}
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	k.Schedule(-1, func() {})
}

func TestScheduleAt(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.ScheduleAt(5*Second, func() { fired = k.Now() })
	k.Run()
	if fired != 5*Second {
		t.Fatalf("fired at %v, want 5s", fired)
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending before run")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel should report true for a pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	k := NewKernel()
	var got []int
	var evs []Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, k.Schedule(Time(i+1)*Second, func() { got = append(got, i) }))
	}
	evs[2].Cancel()
	k.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i)*Second, func() { count++ })
	}
	k.RunUntil(5 * Second)
	if count != 5 {
		t.Fatalf("count = %d after RunUntil(5s), want 5", count)
	}
	if k.Now() != 5*Second {
		t.Fatalf("now = %v, want 5s", k.Now())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("count = %d after Run, want 10", count)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	k := NewKernel()
	k.RunUntil(42 * Second)
	if k.Now() != 42*Second {
		t.Fatalf("now = %v, want 42s", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(Millisecond, rec)
		}
	}
	k.Schedule(0, rec)
	end := k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 99*Millisecond {
		t.Fatalf("end = %v, want 99ms", end)
	}
}

func TestProcBasics(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * Second)
		trace = append(trace, "a1")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * Second)
		trace = append(trace, "b1")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestProcDoneFuture(t *testing.T) {
	k := NewKernel()
	worker := k.Go("worker", func(p *Proc) { p.Sleep(5 * Second) })
	var joinedAt Time
	k.Go("joiner", func(p *Proc) {
		worker.Done().Wait(p)
		joinedAt = p.Now()
	})
	k.Run()
	if joinedAt != 5*Second {
		t.Fatalf("joined at %v, want 5s", joinedAt)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(Second)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected Run to re-panic with proc failure")
		}
	}()
	k.Run()
}

func TestProcYieldOrdering(t *testing.T) {
	k := NewKernel()
	var trace []int
	k.Go("a", func(p *Proc) {
		trace = append(trace, 1)
		p.Yield()
		trace = append(trace, 3)
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, 2)
	})
	k.Run()
	for i, v := range []int{1, 2, 3} {
		if trace[i] != v {
			t.Fatalf("trace = %v", trace)
		}
	}
}

func TestCloseUnblocksParkedProcs(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	k.Go("stuck", func(p *Proc) {
		ch.Recv(p) // blocks forever
		t.Error("stuck proc should never resume normally")
	})
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 parked", k.LiveProcs())
	}
	k.Close()
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", k.LiveProcs())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		ch := NewChan[int](k, 2)
		for i := 0; i < 4; i++ {
			i := i
			k.Go("p", func(p *Proc) {
				p.Sleep(Time(i%2) * Second)
				ch.Send(p, i)
				trace = append(trace, p.Name())
			})
		}
		k.Go("drain", func(p *Proc) {
			for i := 0; i < 4; i++ {
				v, _ := ch.Recv(p)
				trace = append(trace, string(rune('0'+v)))
				p.Sleep(500 * Millisecond)
			}
		})
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{2500, "2.500µs"},
		{3 * Millisecond, "3.000ms"},
		{90 * Second, "90.000s"},
		{MaxTime, "∞"},
		{-Second, "-1.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms uint32) bool {
		tm := FromSeconds(float64(ms) / 1000)
		want := Time(ms) * Millisecond
		diff := tm - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1 // float64 rounding may be off by one nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	if FromSeconds(1e30) != MaxTime {
		t.Fatal("FromSeconds should saturate at MaxTime")
	}
}

// Property: for any batch of events with arbitrary delays, execution order is
// sorted by (time, insertion order).
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i, d := i, d
			k.Schedule(Time(d)*Millisecond, func() {
				fired = append(fired, rec{k.Now(), i})
			})
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && delays[cur.seq] == delays[prev.seq] && cur.seq < prev.seq {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStopHaltsRunAtCurrentTime(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.Schedule(1*Second, func() { fired = append(fired, 1) })
	k.Schedule(2*Second, func() {
		fired = append(fired, 2)
		k.Stop()
	})
	k.Schedule(3*Second, func() { fired = append(fired, 3) })
	end := k.Run()
	if end != 2*Second {
		t.Fatalf("stopped at %v, want 2s", end)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
	// Stop is consumed: a later Run proceeds normally from where it left
	// off, delivering the remaining event.
	end = k.Run()
	if end != 3*Second || len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("resume: end=%v fired=%v", end, fired)
	}
}

func TestStopDoesNotPerturbRunUntilClock(t *testing.T) {
	// An uninterrupted RunUntil advances the clock to the deadline when the
	// queue drains; a Stop must freeze it at the last delivered event so a
	// resumed simulation stays bit-identical with an uninterrupted one.
	k := NewKernel()
	k.Schedule(1*Second, func() { k.Stop() })
	if end := k.RunUntil(10 * Second); end != 1*Second {
		t.Fatalf("stopped RunUntil returned %v, want 1s", end)
	}
	if end := k.RunUntil(10 * Second); end != 10*Second {
		t.Fatalf("resumed RunUntil returned %v, want 10s", end)
	}
}
