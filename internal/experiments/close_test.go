package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestEntryPointsCloseKernels: every experiment entry point, run at its
// smallest scale, closes the kernels it ran, so it leaves no worker
// coroutine (one goroutine each) behind.
func TestEntryPointsCloseKernels(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"table2", func() error { _, err := Table2(); return err }},
		{"fig6", func() error { _, err := Fig6([]float64{2}); return err }},
		{"fig7", func() error { _, err := Fig7([]string{"CG"}, 0.01); return err }},
		{"fig8", func() error { _, err := Fig8(1, 4); return err }},
		{"ext-scalability", func() error { _, err := ExtScalability([]int{1}); return err }},
		{"ext-cold-vs-live", func() error { _, err := ExtColdVsLive([]int{1}); return err }},
		{"ext-bypass", func() error { _, err := ExtBypassOverhead(); return err }},
		{"ext-faults", func() error { _, err := ExtFaultMatrix(); return err }},
		{"ext-rdma", func() error { _, err := ExtRDMA(); return err }},
	} {
		base := runtime.NumGoroutine()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// A stopped coroutine has exited by the time Close returns; the
		// short poll only absorbs unrelated runtime goroutines.
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 100 {
				t.Fatalf("%s: %d goroutines after the run, want <= %d", c.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
