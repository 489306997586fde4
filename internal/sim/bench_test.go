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
//     through the future-event heap;
//   - direct: one process advances alone, so every wait is the next
//     dispatch and the process continues with no coroutine switch;
//   - direct-mix: eight processes take turns running bursts of short
//     advances; within a burst the waits are direct, and the long wait
//     that ends it goes through the heap to the next process.
//
// One op is about one dispatched event; events/s counts them exactly.
func BenchmarkEngineDispatch(b *testing.B) {
	const procs = 64
	for _, bc := range []struct {
		name  string
		procs int
		body  func(e *Engine, rounds int)
	}{
		{"yield", procs, func(e *Engine, rounds int) {
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprintf("y%d", i), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Yield()
					}
				})
			}
		}},
		{"park-wake", procs, func(e *Engine, rounds int) {
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
		{"heap", procs, func(e *Engine, rounds int) {
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprintf("h%d", i), func(p *Proc) {
					for r := 0; r < rounds; r++ {
						p.Advance(uint64(1 + (i*7+r)%29))
					}
				})
			}
		}},
		{"direct", 1, func(e *Engine, rounds int) {
			e.Spawn("d", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Advance(1)
				}
			})
		}},
		{"direct-mix", 8, func(e *Engine, rounds int) {
			const burst = 32 // cycles per turn
			for i := 0; i < 8; i++ {
				e.Spawn(fmt.Sprintf("m%d", i), func(p *Proc) {
					p.Advance(uint64(i * burst)) // stagger the turns
					for r := 1; r < rounds; r++ {
						if r%burst != 0 {
							p.Advance(1)
						} else {
							p.Advance(7*burst + 1) // sleep through the others' turns
						}
					}
				})
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rounds := b.N/bc.procs + 1
			e := NewEngine()
			bc.body(e, rounds)
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/s")
		})
	}
}
