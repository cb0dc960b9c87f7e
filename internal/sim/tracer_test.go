package sim

import "testing"

// countingTracer counts callbacks.
type countingTracer struct {
	starts, ends int
}

func (c *countingTracer) KernelStart(at Time, q *Queue, k *Kernel)            { c.starts++ }
func (c *countingTracer) KernelEnd(at Time, q *Queue, k *Kernel, avg float64) { c.ends++ }

// runOneKernel drives a single compute kernel to completion on gpu.
func runOneKernel(eng *Engine, gpu *GPU) {
	ctx, err := gpu.NewContext(ContextOptions{NoMemCharge: true})
	if err != nil {
		panic(err)
	}
	q := ctx.NewQueue("q")
	k := &Kernel{Name: "k", Kind: Compute, Work: 108 * Microsecond, SaturationSMs: 108}
	q.Enqueue(0, k, nil)
	eng.Run()
}

func TestAddTracerFanOut(t *testing.T) {
	eng := NewEngine()
	gpu := NewGPU(eng, DefaultConfig())
	a, b := &countingTracer{}, &countingTracer{}
	gpu.AddTracer(a)
	gpu.AddTracer(b)
	gpu.AddTracer(nil) // ignored
	runOneKernel(eng, gpu)
	if a.starts != 1 || a.ends != 1 || b.starts != 1 || b.ends != 1 {
		t.Fatalf("fan-out missed callbacks: a=%+v b=%+v", a, b)
	}
}

func TestRemoveTracer(t *testing.T) {
	eng := NewEngine()
	gpu := NewGPU(eng, DefaultConfig())
	a, b := &countingTracer{}, &countingTracer{}
	gpu.AddTracer(a)
	gpu.AddTracer(b)
	gpu.RemoveTracer(a)
	gpu.RemoveTracer(a) // absent: no-op
	runOneKernel(eng, gpu)
	if a.starts != 0 || b.starts != 1 {
		t.Fatalf("RemoveTracer failed: a=%+v b=%+v", a, b)
	}
}

// kernelHotPath executes n kernels back to back through one queue; the
// per-kernel steady-state cost is what the tracing fan-out must not inflate.
func kernelHotPath(eng *Engine, q *Queue, k *Kernel, n int) {
	for i := 0; i < n; i++ {
		q.Enqueue(eng.Now(), k, nil)
		eng.Run()
	}
}

// TestNoTracerZeroExtraAllocs pins the acceptance requirement that tracing
// disabled adds zero allocations on the kernel hot path: the per-kernel
// allocation count with no tracers attached must not exceed the count of a
// device that never had tracer support exercised (the exec record and the
// completion event are the only per-kernel allocations either way).
func TestNoTracerZeroExtraAllocs(t *testing.T) {
	setup := func(attach bool) (*Engine, *Queue) {
		eng := NewEngine()
		gpu := NewGPU(eng, DefaultConfig())
		if attach {
			tr := &countingTracer{}
			gpu.AddTracer(tr)
			gpu.RemoveTracer(tr) // leave the device with zero tracers
		}
		ctx, err := gpu.NewContext(ContextOptions{NoMemCharge: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng, ctx.NewQueue("q")
	}
	k := &Kernel{Name: "k", Kind: Compute, Work: 108 * Microsecond, SaturationSMs: 108}

	measure := func(attach bool) float64 {
		eng, q := setup(attach)
		kernelHotPath(eng, q, k, 8) // warm up
		return testing.AllocsPerRun(50, func() {
			kernelHotPath(eng, q, k, 1)
		})
	}
	base := measure(false)
	withSupport := measure(true)
	if withSupport > base {
		t.Fatalf("tracer support added allocations on the untraced hot path: %g > %g allocs/kernel", withSupport, base)
	}
}

// BenchmarkKernelHotPathUntraced and ...Traced guard the hot-path cost of the
// tracer fan-out: run with -benchmem and compare allocs/op.
func BenchmarkKernelHotPathUntraced(b *testing.B) {
	benchKernelHotPath(b, false)
}

func BenchmarkKernelHotPathTraced(b *testing.B) {
	benchKernelHotPath(b, true)
}

func benchKernelHotPath(b *testing.B, traced bool) {
	eng := NewEngine()
	gpu := NewGPU(eng, DefaultConfig())
	if traced {
		gpu.AddTracer(&countingTracer{})
	}
	ctx, err := gpu.NewContext(ContextOptions{NoMemCharge: true})
	if err != nil {
		b.Fatal(err)
	}
	q := ctx.NewQueue("q")
	k := &Kernel{Name: "k", Kind: Compute, Work: 108 * Microsecond, SaturationSMs: 108}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelHotPath(eng, q, k, 1)
	}
}
