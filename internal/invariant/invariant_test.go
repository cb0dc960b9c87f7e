package invariant

import (
	"math/rand"
	"strings"
	"testing"

	"bless/internal/obs"
	"bless/internal/sim"
)

// runBrokenScheduler simulates a deliberately broken scheduler: two clients
// provisioned at 50% each, but the "scheduler" pins client 0's context to a
// 5-SM affinity limit while client 1 runs unrestricted. The workload is drawn
// from the given seed so the failure is replayable.
func runBrokenScheduler(t *testing.T, seed int64, opts Options) *Checker {
	t.Helper()
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	clients := []Client{
		{ID: 0, Name: "victim", Quota: 0.5},
		{ID: 1, Name: "hog", Quota: 0.5},
	}
	chk := New(clients, gpu.Config(), opts)
	gpu.AddTracer(chk)

	starved, err := gpu.NewContext(sim.ContextOptions{
		Label: "victim", NoMemCharge: true, SMLimit: 5, Owner: sim.OwnerTag(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := gpu.NewContext(sim.ContextOptions{
		Label: "hog", NoMemCharge: true, Owner: sim.OwnerTag(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	at := sim.Time(0)
	for i := 0; i < 40; i++ {
		work := sim.Time(200+rng.Intn(200)) * sim.Microsecond
		k := &sim.Kernel{Name: "k", Kind: sim.Compute, Work: work, SaturationSMs: 108}
		starved.NewQueue("q").Enqueue(at, k, nil)
		greedy.NewQueue("q").Enqueue(at, k, nil)
		at += 50 * sim.Microsecond
	}
	eng.Run()
	return chk
}

// TestBrokenSchedulerQuotaViolationCaught is the acceptance test: a seeded
// quota violation must be detected and the violation must carry the
// replayable seed.
func TestBrokenSchedulerQuotaViolationCaught(t *testing.T) {
	const repro = "go test -run TestBrokenSchedulerQuotaViolationCaught ./internal/invariant  # seed=1337"
	chk := runBrokenScheduler(t, 1337, Options{
		Enforce: []Class{Conservation, Order, Quota},
		Repro:   repro,
	})
	rep := chk.Report()

	var quota *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Class == Quota {
			quota = &rep.Violations[i]
			break
		}
	}
	if quota == nil {
		t.Fatalf("broken scheduler produced no quota violation; report: %+v", rep.Clients)
	}
	if !strings.Contains(quota.Msg, "victim") {
		t.Errorf("violation does not name the starved client: %s", quota.Msg)
	}
	if !strings.Contains(quota.Error(), "seed=1337") {
		t.Errorf("violation error lacks the replayable seed: %s", quota.Error())
	}
	// The starved client's report must show the shortfall; the hog is fine.
	if !rep.Clients[0].Violated {
		t.Error("victim client not marked violated")
	}
	if rep.Clients[0].Share > 0.5 {
		t.Errorf("victim share = %.2f, expected far below quota", rep.Clients[0].Share)
	}
	if rep.Clients[1].Violated {
		t.Error("hog client wrongly marked violated")
	}
	// Universal classes stay clean: the broken scheduler starves, it does not
	// fabricate SMs or reorder queues.
	for _, v := range rep.Violations {
		if v.Class == Conservation || v.Class == Order {
			t.Errorf("unexpected universal violation: %v", v)
		}
	}
}

// TestQuotaUnenforcedBecomesObservation checks the enforcement split: with
// the default (universal) enforcement set, the same broken run reports the
// quota breach as an observation, not a failure.
func TestQuotaUnenforcedBecomesObservation(t *testing.T) {
	chk := runBrokenScheduler(t, 1337, Options{})
	rep := chk.Report()
	if len(rep.Violations) != 0 {
		t.Fatalf("universal-only enforcement produced violations: %v", rep.Violations)
	}
	found := false
	for _, v := range rep.Observations {
		if v.Class == Quota {
			found = true
		}
	}
	if !found {
		t.Error("quota breach missing from observations")
	}
	if rep.Err() != nil {
		t.Errorf("Err() = %v, want nil", rep.Err())
	}
}

// fakeQueue builds a real queue (the checker dereferences Queue.Context) for
// fabricated-snapshot tests.
func fakeQueue(t *testing.T, gpu *sim.GPU, label string, limit int) *sim.Queue {
	t.Helper()
	ctx, err := gpu.NewContext(sim.ContextOptions{Label: label, NoMemCharge: true, SMLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return ctx.NewQueue("q")
}

func TestConservationDetectsFabricatedLoads(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig()) // 108 SMs

	t.Run("over-capacity", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "a", 0)
		chk.AllocationsChanged(0, []sim.QueueLoad{{Queue: q, Alloc: 200, Want: 200}})
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Conservation {
			t.Fatalf("200 SMs on a 108-SM device not flagged: %+v", rep.Violations)
		}
		if !strings.Contains(rep.Violations[0].Msg, "exceeds capacity") {
			t.Errorf("unexpected message: %s", rep.Violations[0].Msg)
		}
	})

	t.Run("over-context-limit", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "b", 10)
		chk.AllocationsChanged(0, []sim.QueueLoad{{Queue: q, Alloc: 30, Want: 30}})
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Conservation {
			t.Fatalf("30 SMs under a 10-SM affinity limit not flagged: %+v", rep.Violations)
		}
		if !strings.Contains(rep.Violations[0].Msg, "SM-affinity limit") {
			t.Errorf("unexpected message: %s", rep.Violations[0].Msg)
		}
	})

	t.Run("grant-above-demand", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "c", 0)
		k := &sim.Kernel{Name: "k", Kind: sim.Compute, Work: sim.Microsecond, SaturationSMs: 8}
		chk.AllocationsChanged(0, []sim.QueueLoad{{Queue: q, Running: k, Alloc: 50, Demand: 8, Want: 8}})
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Conservation {
			t.Fatalf("50-SM grant for an 8-SM demand not flagged: %+v", rep.Violations)
		}
	})
}

// TestAffinityViolationsReportInContextOrder puts two over-limit contexts in
// one sample and requires their violations in the same order on every run:
// context-ID order, whatever order the sample lists their queues in.
func TestAffinityViolationsReportInContextOrder(t *testing.T) {
	gpu := sim.NewGPU(sim.NewEngine(), sim.DefaultConfig())
	first := fakeQueue(t, gpu, "first", 10)
	second := fakeQueue(t, gpu, "second", 20)
	loads := []sim.QueueLoad{
		{Queue: second, Alloc: 30, Want: 30},
		{Queue: first, Alloc: 15, Want: 15},
	}
	for run := 0; run < 20; run++ {
		chk := New(nil, gpu.Config(), Options{})
		chk.AllocationsChanged(0, loads)
		rep := chk.Report()
		if len(rep.Violations) != 2 {
			t.Fatalf("run %d: %d violations, want 2: %+v", run, len(rep.Violations), rep.Violations)
		}
		if !strings.Contains(rep.Violations[0].Msg, `"first"`) || !strings.Contains(rep.Violations[1].Msg, `"second"`) {
			t.Fatalf("run %d: violations out of context order: %q, %q", run, rep.Violations[0].Msg, rep.Violations[1].Msg)
		}
	}
}

func TestOrderDetectsSyntheticViolations(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	k1 := &sim.Kernel{Name: "k1", Kind: sim.Compute, Work: sim.Microsecond, SaturationSMs: 8}
	k2 := &sim.Kernel{Name: "k2", Kind: sim.Compute, Work: sim.Microsecond, SaturationSMs: 8}

	t.Run("time-regression", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "r", 0)
		chk.KernelEnqueued(100, q, k1)
		chk.KernelEnqueued(50, q, k2) // regresses
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Order {
			t.Fatalf("time regression not flagged: %+v", rep.Violations)
		}
		if !strings.Contains(rep.Violations[0].Msg, "virtual time regressed") {
			t.Errorf("unexpected message: %s", rep.Violations[0].Msg)
		}
	})

	t.Run("fifo-reorder", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "f", 0)
		chk.KernelEnqueued(0, q, k1)
		chk.KernelEnqueued(1, q, k2)
		chk.KernelStart(2, q, k2) // k1 was first
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Order {
			t.Fatalf("FIFO reorder not flagged: %+v", rep.Violations)
		}
		if !strings.Contains(rep.Violations[0].Msg, "FIFO") {
			t.Errorf("unexpected message: %s", rep.Violations[0].Msg)
		}
	})

	t.Run("overlapping-starts", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "o", 0)
		chk.KernelEnqueued(0, q, k1)
		chk.KernelEnqueued(1, q, k2)
		chk.KernelStart(2, q, k1)
		chk.KernelStart(3, q, k2) // k1 never ended
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Order {
			t.Fatalf("overlapping starts not flagged: %+v", rep.Violations)
		}
	})

	t.Run("mismatched-end", func(t *testing.T) {
		chk := New(nil, gpu.Config(), Options{})
		q := fakeQueue(t, gpu, "m", 0)
		chk.KernelEnqueued(0, q, k1)
		chk.KernelStart(1, q, k1)
		chk.KernelEnd(2, q, k2, 8) // wrong kernel
		rep := chk.Report()
		if len(rep.Violations) == 0 || rep.Violations[0].Class != Order {
			t.Fatalf("mismatched completion not flagged: %+v", rep.Violations)
		}
	})
}

// cleanRun drives a fair two-context workload through a real simulation and
// returns the checker's report and digest.
func cleanRun(t *testing.T, seed int64) *Report {
	t.Helper()
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	clients := []Client{
		{ID: 0, Name: "a", Quota: 0.5},
		{ID: 1, Name: "b", Quota: 0.5},
	}
	chk := New(clients, gpu.Config(), Options{Enforce: All()})
	gpu.AddTracer(chk)

	bus := obs.NewBus()
	bus.Subscribe(chk)

	rng := rand.New(rand.NewSource(seed))
	for i, cl := range clients {
		ctx, err := gpu.NewContext(sim.ContextOptions{
			Label: cl.Name, NoMemCharge: true, Owner: sim.OwnerTag(cl.ID),
		})
		if err != nil {
			t.Fatal(err)
		}
		q := ctx.NewQueue("q")
		at := sim.Time(0)
		for j := 0; j < 30; j++ {
			work := sim.Time(100+rng.Intn(150)) * sim.Microsecond
			k := &sim.Kernel{Name: "k", Kind: sim.Compute, Work: work, SaturationSMs: 108}
			q.Enqueue(at, k, nil)
			at += 20 * sim.Microsecond
		}
		bus.Emit(obs.Event{At: sim.Time(i), Kind: obs.KindSquadFormed, Client: cl.Name})
	}
	eng.Run()
	return chk.Report()
}

// TestFairRunSatisfiesAllInvariants is the negative control: an even
// max-min-fair split with saturating demand must pass every class.
func TestFairRunSatisfiesAllInvariants(t *testing.T) {
	rep := cleanRun(t, 7)
	if len(rep.Violations) != 0 {
		t.Fatalf("fair run violated invariants: %v", rep.Violations)
	}
	if rep.Kernels != 60 {
		t.Errorf("kernels = %d, want 60", rep.Kernels)
	}
	if rep.Samples == 0 || rep.Events != 2 {
		t.Errorf("samples = %d events = %d, want >0 and 2", rep.Samples, rep.Events)
	}
	for _, cr := range rep.Clients {
		if cr.Share < 0.85 {
			t.Errorf("client %q share = %.2f under a fair split", cr.Client.Name, cr.Share)
		}
	}
}

// TestDigestDeterminismAndSensitivity: same seed twice → identical digests;
// different seed → different digest.
func TestDigestDeterminismAndSensitivity(t *testing.T) {
	a := cleanRun(t, 7)
	b := cleanRun(t, 7)
	c := cleanRun(t, 8)
	if a.Digest != b.Digest {
		t.Errorf("same-seed digests differ: %x vs %x", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("different-seed digests collide: %x", a.Digest)
	}
	if a.Digest == fnvOffset {
		t.Error("digest never folded any event")
	}
}

// TestMaxViolationsCap: a storm of violations is capped and counted.
func TestMaxViolationsCap(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	chk := New(nil, gpu.Config(), Options{MaxViolations: 3})
	q := fakeQueue(t, gpu, "cap", 0)
	for i := 0; i < 10; i++ {
		chk.AllocationsChanged(sim.Time(i), []sim.QueueLoad{{Queue: q, Alloc: 500, Want: 500}})
	}
	rep := chk.Report()
	if len(rep.Violations) != 3 {
		t.Errorf("stored violations = %d, want 3", len(rep.Violations))
	}
	if rep.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", rep.Dropped)
	}
}

// TestBubbleDetection fabricates a schedule where half the device idles while
// deferred demand exists, and checks the bubble verdict plus the tolerance
// gate on the slack knob.
func TestBubbleDetection(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())

	run := func(idleSMs float64) *Report {
		chk := New(nil, gpu.Config(), Options{Enforce: All()})
		q := fakeQueue(t, gpu, "bub", 0)
		k := &sim.Kernel{Name: "k", Kind: sim.Compute, Work: sim.Millisecond, SaturationSMs: 108}
		// Constant picture over 10ms: kernel granted 108-idle SMs while
		// wanting all 108.
		load := []sim.QueueLoad{{Queue: q, Running: k, Alloc: 108 - idleSMs, Demand: 108, Want: 108}}
		chk.AllocationsChanged(0, load)
		chk.AllocationsChanged(10*sim.Millisecond, load)
		chk.AllocationsChanged(10*sim.Millisecond, nil) // close the window
		return chk.Report()
	}

	bubbly := run(54)
	if bubbly.BubbleFraction < 0.99 {
		t.Fatalf("bubble fraction = %.2f, want ~1", bubbly.BubbleFraction)
	}
	found := false
	for _, v := range bubbly.Violations {
		if v.Class == Bubble {
			found = true
		}
	}
	if !found {
		t.Errorf("half-idle device under full demand not flagged: %+v", bubbly.Violations)
	}

	tight := run(1) // within BubbleSlackSMs
	if tight.BubbleTime != 0 {
		t.Errorf("1 idle SM counted as bubble time: %v", tight.BubbleTime)
	}
	for _, v := range tight.Violations {
		if v.Class == Bubble {
			t.Errorf("slack-level idling wrongly flagged: %v", v)
		}
	}
}
