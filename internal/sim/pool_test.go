package sim

import (
	"runtime"
	"testing"
	"time"
)

// assertGoroutines fails unless the goroutine count drops back to base.
// A coroutine that Close stopped has exited by the time stop returns, so
// the short poll only absorbs unrelated runtime goroutines winding down.
func assertGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: %d goroutines after Close, want <= %d", what, runtime.NumGoroutine(), base)
}

func TestCloseReleasesGoroutines(t *testing.T) {
	t.Run("never-stepped", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		k.Go("never", func(p *Proc) { t.Error("proc ran without a step") })
		k.Close()
		assertGoroutines(t, base, "proc started but never stepped")
	})

	t.Run("stop-mid-run", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		ch := NewChan[int](k, 0)
		for i := 0; i < 3; i++ {
			k.Go("parked", func(p *Proc) { ch.Recv(p) })
			k.Go("finished", func(p *Proc) { p.Sleep(Second) })
		}
		k.Go("stopper", func(p *Proc) {
			p.Sleep(2 * Second)
			k.Stop()
			p.Sleep(Second)
		})
		k.Run()
		if k.Now() != 2*Second || k.LiveProcs() != 4 || len(k.idle) == 0 {
			t.Fatalf("at stop: now=%v live=%d idle=%d, want 2s, 4 live, some idle",
				k.Now(), k.LiveProcs(), len(k.idle))
		}
		k.Close()
		if k.LiveProcs() != 0 {
			t.Fatalf("LiveProcs after Close = %d, want 0", k.LiveProcs())
		}
		assertGoroutines(t, base, "Stop with parked procs and idle workers")
	})

	t.Run("panic-then-reuse", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		k.Go("boom", func(p *Proc) {
			p.Sleep(Second)
			panic("kaboom")
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected Run to re-panic with the proc failure")
				}
			}()
			k.Run()
		}()
		var doneAt Time
		after := k.Go("after", func(p *Proc) {
			p.Sleep(Second)
			doneAt = p.Now()
		})
		k.Run()
		if doneAt != 2*Second || !after.Done().Done() {
			t.Fatalf("proc after the panic finished at %v (done=%v), want 2s",
				doneAt, after.Done().Done())
		}
		if len(k.workers) != 1 {
			t.Fatalf("%d workers, want the panicked proc's worker reused", len(k.workers))
		}
		k.Close()
		assertGoroutines(t, base, "panic re-raised from Run")
	})
}
