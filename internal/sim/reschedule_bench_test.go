package sim

import (
	"fmt"
	"testing"
)

// BenchmarkReschedule measures the steady-state cost of the device's
// rate-recomputation hot path under a contended multi-queue load: four
// closed-loop queues (two unrestricted, two SM-restricted) keep the device
// saturated, every completion triggers a full reschedule, and every re-enqueue
// lands on a busy queue. One op is one kernel through enqueue, rate
// assignment and retirement. Run with -benchmem; scripts/bench_compare.sh
// gates allocs/op against the recorded baseline in BENCH_sim.json.
func BenchmarkReschedule(b *testing.B) {
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	const nq = 4
	queues := make([]*Queue, nq)
	for i := 0; i < nq; i++ {
		limit := 0
		if i%2 == 1 {
			limit = 36 // mixed tiers: restricted contexts alongside unrestricted
		}
		ctx, err := g.NewContext(ContextOptions{
			SMLimit:     limit,
			NoMemCharge: true,
			Label:       fmt.Sprintf("c%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
		queues[i] = ctx.NewQueue(fmt.Sprintf("q%d", i))
	}
	k := &Kernel{
		Name:          "bench",
		Kind:          Compute,
		Work:          54 * Microsecond,
		SaturationSMs: 80,
		MemIntensity:  0.4,
	}

	remaining := b.N
	for _, q := range queues {
		q := q
		var relaunch func(at Time)
		relaunch = func(at Time) {
			if remaining > 0 {
				remaining--
				q.Enqueue(at, k, relaunch)
			}
		}
		// Prime each queue two deep so steady-state re-enqueues always hit a
		// busy queue (the common shape under closed-loop load).
		q.Enqueue(0, k, relaunch)
		q.Enqueue(0, k, relaunch)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for eng.Step() {
	}
}

// BenchmarkRescheduleLone measures the lone-kernel rate pass: one
// closed-loop queue, primed two deep, so every completion retires the only
// running kernel and starts its successor alone. One op is one kernel. It
// must stay at 0 allocs/op (gated exactly in BENCH_sim.json).
func BenchmarkRescheduleLone(b *testing.B) {
	eng := NewEngine()
	g := NewGPU(eng, DefaultConfig())
	ctx, err := g.NewContext(ContextOptions{NoMemCharge: true, Label: "c0"})
	if err != nil {
		b.Fatal(err)
	}
	q := ctx.NewQueue("q0")
	k := &Kernel{
		Name:          "bench",
		Kind:          Compute,
		Work:          54 * Microsecond,
		SaturationSMs: 80,
		MemIntensity:  0.4,
	}

	remaining := b.N
	var relaunch func(at Time)
	relaunch = func(at Time) {
		if remaining > 0 {
			remaining--
			q.Enqueue(at, k, relaunch)
		}
	}
	q.Enqueue(0, k, relaunch)
	q.Enqueue(0, k, relaunch)

	b.ReportAllocs()
	b.ResetTimer()
	for eng.Step() {
	}
}
