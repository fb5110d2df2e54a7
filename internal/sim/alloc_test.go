// The race detector allocates on coroutine switches, so the allocation
// counts below only hold in a normal build.
//go:build !race

package sim

import "testing"

// TestAllocFreeWakeUps checks that once warm, a Sleep wake-up and a
// PS.Serve park and wake allocate nothing. Each Run executes one round
// trip: the proc stops the kernel each time it resumes.
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
}
