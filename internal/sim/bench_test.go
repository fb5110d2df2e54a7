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

// BenchmarkPSChain measures one 3000-quantum chain of 0.2 s quanta, the
// experiments' app loop, on a fresh 1-core PS: lone is the fleet's shape
// (the chain is the PS's only job), pair runs a second chain beside it.
func BenchmarkPSChain(b *testing.B) {
	for _, bc := range []struct {
		name   string
		chains int
	}{{"lone", 1}, {"pair", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel()
			defer k.Close()
			k.Go("driver", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					ps := NewPS(k, 1, 1)
					var twin *Proc
					if bc.chains == 2 {
						twin = k.Go("twin", func(q *Proc) {
							var c Chain
							ps.ServeChain(q, &c, 3000, 0.2)
						})
					}
					var c Chain
					ps.ServeChain(p, &c, 3000, 0.2)
					if twin != nil {
						twin.Done().Wait(p)
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
	}
}
