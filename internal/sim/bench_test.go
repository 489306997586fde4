package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineDispatch times the kernel alone, with no model code
// around it, on the three dispatch paths a simulation exercises:
//
//   - yield: processes re-queue at the current cycle (the FIFO fast
//     path taken by Yield, Wake and resource handoff);
//   - park-wake: a token passes around a ring of parked processes,
//     the pattern of threads handing off a lock;
//   - heap: processes advance by staggered delays, so every event goes
//     through the future-event heap.
//
// One op is about one dispatched event; events/s counts them exactly.
func BenchmarkEngineDispatch(b *testing.B) {
	const procs = 64
	for _, bc := range []struct {
		name string
		body func(e *Engine, rounds int)
	}{
		{"yield", func(e *Engine, rounds int) {
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprintf("y%d", i), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Yield()
					}
				})
			}
		}},
		{"park-wake", func(e *Engine, rounds int) {
			ring := make([]*Proc, procs)
			for i := range ring {
				ring[i] = e.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						if i != 0 || r != 0 {
							p.Park()
						} else {
							p.Yield() // let the rest of the ring park first
						}
						if i != procs-1 || r != rounds-1 {
							p.Wake(ring[(i+1)%procs])
						}
					}
				})
			}
		}},
		{"heap", func(e *Engine, rounds int) {
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprintf("h%d", i), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Advance(uint64(1 + (i*7+r)%29))
					}
				})
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rounds := b.N/procs + 1
			e := NewEngine()
			bc.body(e, rounds)
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/s")
		})
	}
}
