package sim

import "testing"

// Wall-clock benchmarks of the process layer: ns/op and allocs/op carry a
// "/" in their unit, so cmd/benchdiff reports them without gating.

// BenchmarkProcSleep measures one Sleep: schedule the wake-up, park, and
// switch back into the proc.
func BenchmarkProcSleep(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSpawn measures starting a proc, running it to exit and
// waking the proc that waits on its Done future.
func BenchmarkProcSpawn(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Go("child", func(*Proc) {}).Done().Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkPSServe measures one Serve with 16 procs sharing one PS.
func BenchmarkPSServe(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	ps := NewPS(k, 16, 1)
	served := 0
	for i := 0; i < 16; i++ {
		k.Go("client", func(p *Proc) {
			for served < b.N {
				served++
				ps.Serve(p, 1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
