package sim

import "testing"

func TestFutureSetBeforeWait(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	f.Set(42)
	var got int
	k.Go("w", func(p *Proc) { got = f.Wait(p) })
	k.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestFutureWaitBeforeSet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[string](k)
	var got string
	var at Time
	k.Go("w", func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	k.Schedule(3*Second, func() { f.Set("hello") })
	k.Run()
	if got != "hello" || at != 3*Second {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	count := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			f.Wait(p)
			count++
		})
	}
	k.Schedule(Second, func() { f.Set(1) })
	k.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Set")
		}
	}()
	f.Set(2)
}

func TestFutureValueUnresolvedPanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Value of unresolved future")
		}
	}()
	f.Value()
}

func TestFutureOnDone(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	var got []int
	f.OnDone(func(v int) { got = append(got, v) })
	k.Schedule(Second, func() { f.Set(7) })
	k.Run()
	f.OnDone(func(v int) { got = append(got, v*2) }) // after resolution
	k.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 14 {
		t.Fatalf("got %v", got)
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	var sentAt, recvAt Time
	k.Go("sender", func(p *Proc) {
		ch.Send(p, 99)
		sentAt = p.Now()
	})
	k.Go("receiver", func(p *Proc) {
		p.Sleep(2 * Second)
		v, ok := ch.Recv(p)
		if !ok || v != 99 {
			t.Errorf("recv = %d,%v", v, ok)
		}
		recvAt = p.Now()
	})
	k.Run()
	if sentAt != 2*Second || recvAt != 2*Second {
		t.Fatalf("sentAt=%v recvAt=%v, want both 2s", sentAt, recvAt)
	}
}

func TestChanBuffered(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var blockedAt, unblockedAt Time
	k.Go("sender", func(p *Proc) {
		ch.Send(p, 1) // buffered, no block
		ch.Send(p, 2) // buffered, no block
		blockedAt = p.Now()
		ch.Send(p, 3) // blocks until a recv frees a slot
		unblockedAt = p.Now()
	})
	k.Go("receiver", func(p *Proc) {
		p.Sleep(5 * Second)
		for i := 1; i <= 3; i++ {
			v, _ := ch.Recv(p)
			if v != i {
				t.Errorf("recv %d, want %d (FIFO)", v, i)
			}
		}
	})
	k.Run()
	if blockedAt != 0 {
		t.Fatalf("blockedAt = %v, want 0", blockedAt)
	}
	if unblockedAt != 5*Second {
		t.Fatalf("unblockedAt = %v, want 5s", unblockedAt)
	}
}

func TestChanCloseDrains(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 4)
	k.Go("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Close()
	})
	var got []int
	var lastOK bool = true
	k.Go("receiver", func(p *Proc) {
		p.Sleep(Second)
		for {
			v, ok := ch.Recv(p)
			if !ok {
				lastOK = false
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || lastOK {
		t.Fatalf("got %v lastOK=%v", got, lastOK)
	}
}

func TestChanCloseWakesBlockedReceiver(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	woke := false
	k.Go("receiver", func(p *Proc) {
		_, ok := ch.Recv(p)
		if ok {
			t.Error("expected ok=false from closed channel")
		}
		woke = true
	})
	k.Schedule(Second, func() { ch.Close() })
	k.Run()
	if !woke {
		t.Fatal("receiver never woke on close")
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	ch.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Go("s", func(p *Proc) { ch.Send(p, 1) })
	k.Run()
}

func TestChanTryRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan should fail")
	}
	k.Go("s", func(p *Proc) { ch.Send(p, 5) })
	k.Run()
	if v, ok := ch.TryRecv(); !ok || v != 5 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Second)
			wg.Done()
		})
	}
	var doneAt Time
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 3*Second {
		t.Fatalf("doneAt = %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroNoBlock(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	ran := false
	k.Go("w", func(p *Proc) {
		wg.Wait(p) // should not block
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wg.Done()
}

func TestCondSignalFIFO(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			p.Sleep(Time(i) * Millisecond) // deterministic arrival order
			c.Wait(p)
			order = append(order, i)
		})
	}
	k.Schedule(Second, func() { c.Signal() })
	k.Schedule(2*Second, func() { c.Signal() })
	k.Schedule(3*Second, func() { c.Signal() })
	k.Run()
	for i, v := range []int{0, 1, 2} {
		if order[i] != v {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	count := 0
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			count++
		})
	}
	k.Schedule(Second, func() {
		if c.Waiting() != 4 {
			t.Errorf("Waiting = %d, want 4", c.Waiting())
		}
		c.Broadcast()
	})
	k.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}
