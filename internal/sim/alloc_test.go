// The race detector allocates on coroutine switches, so the allocation
// counts below only hold in a normal build.
//go:build !race

package sim

import "testing"

// TestAllocFreeWakeUps checks that once warm, a Sleep wake-up, a PS.Serve
// park and wake, a Cond Wait/Broadcast round and a PS chain allocate
// nothing. Each Run executes one round trip: the proc stops the kernel
// each time it resumes.
func TestAllocFreeWakeUps(t *testing.T) {
	t.Run("sleep", func(t *testing.T) {
		k := NewKernel()
		defer k.Close()
		k.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(Second)
				k.Stop()
			}
		})
		if n := testing.AllocsPerRun(100, func() { k.Run() }); n != 0 {
			t.Fatalf("Sleep wake-up allocates %v times, want 0", n)
		}
	})
	t.Run("serve", func(t *testing.T) {
		k := NewKernel()
		defer k.Close()
		ps := NewPS(k, 1, 0)
		k.Go("client", func(p *Proc) {
			for {
				ps.Serve(p, 1)
				k.Stop()
			}
		})
		if n := testing.AllocsPerRun(100, func() { k.Run() }); n != 0 {
			t.Fatalf("PS.Serve allocates %v times, want 0", n)
		}
	})
	t.Run("cond", func(t *testing.T) {
		k := NewKernel()
		defer k.Close()
		c := NewCond(k)
		k.Go("waiter", func(p *Proc) {
			for {
				c.Wait(p)
				k.Stop()
			}
		})
		k.Run()
		broadcast := c.Broadcast
		if n := testing.AllocsPerRun(100, func() {
			k.Schedule(0, broadcast)
			k.Run()
		}); n != 0 {
			t.Fatalf("Cond Wait/Broadcast allocates %v times, want 0", n)
		}
	})
	t.Run("chain", func(t *testing.T) {
		k := NewKernel()
		defer k.Close()
		ps := NewPS(k, 1, 0)
		var c Chain
		k.Go("client", func(p *Proc) {
			for {
				ps.ServeChain(p, &c, 3*psHorizon, 0.2)
				k.Stop()
			}
		})
		if n := testing.AllocsPerRun(20, func() { k.Run() }); n != 0 {
			t.Fatalf("PS.ServeChain allocates %v times, want 0", n)
		}
	})
}
