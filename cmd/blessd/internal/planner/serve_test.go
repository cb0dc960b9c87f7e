package planner

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"
)

// serveTestTenants is the canonical mixed deployment: two in-quota tenants
// (low rate, never shed) and two overloaded ones (offered far beyond their
// quota's bubble-free throughput, must shed).
func serveTestTenants() []ServeTenant {
	return []ServeTenant{
		{Name: "calm-a", App: "resnet50", Quota: 0.2, RateRPS: 10},
		{Name: "calm-b", App: "vgg11", Quota: 0.2, RateRPS: 10},
		{Name: "hot-a", App: "resnet50", Quota: 0.2, RateRPS: 500000},
		{Name: "hot-b", App: "nasnet", Quota: 0.2, RateRPS: 500000},
	}
}

func mustServeOpen(t testing.TB, p *Planner, req ServeOpenRequest) ServeOpenReply {
	t.Helper()
	var reply ServeOpenReply
	if err := p.ServeOpen(req, &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestServeOpenValidation(t *testing.T) {
	p := New()
	var reply ServeOpenReply
	if err := p.ServeOpen(ServeOpenRequest{}, &reply); err == nil {
		t.Error("tenant-less open accepted")
	}
	if err := p.ServeOpen(ServeOpenRequest{Tenants: []ServeTenant{
		{Name: "", App: "resnet50", Quota: 0.5, RateRPS: 10},
	}}, &reply); err == nil {
		t.Error("nameless tenant accepted")
	}
	if err := p.ServeOpen(ServeOpenRequest{Tenants: []ServeTenant{
		{Name: "a", App: "resnet50", Quota: 0.5, RateRPS: 0},
	}}, &reply); err == nil {
		t.Error("zero-rate tenant accepted")
	}
	if err := p.ServeOpen(ServeOpenRequest{Tenants: []ServeTenant{
		{Name: "a", App: "resnet50", Quota: 0.5, RateRPS: 10},
		{Name: "a", App: "vgg11", Quota: 0.3, RateRPS: 10},
	}}, &reply); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	// Placement admission: two 0.9-quota tenants cannot co-place on one GPU.
	if err := p.ServeOpen(ServeOpenRequest{Tenants: []ServeTenant{
		{Name: "a", App: "resnet50", Quota: 0.9, RateRPS: 10},
		{Name: "b", App: "vgg11", Quota: 0.9, RateRPS: 10},
	}, GPUs: 1}, &reply); err == nil {
		t.Error("over-quota tenant set passed placement admission")
	}
	// Double-open rejects until closed.
	mustServeOpen(t, p, ServeOpenRequest{Tenants: serveTestTenants()})
	if err := p.ServeOpen(ServeOpenRequest{Tenants: serveTestTenants()}, &reply); err == nil {
		t.Error("second open accepted while deployment open")
	}
	var cl ServeCloseReply
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	mustServeOpen(t, p, ServeOpenRequest{Tenants: serveTestTenants()})
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
}

// TestServeAdmitAndShed drives a mixed deployment serially and checks the
// admission contract: in-quota tenants never shed, overloaded tenants shed
// with a positive retry-after, accounting balances, and no invariant breaks.
func TestServeAdmitAndShed(t *testing.T) {
	p := New()
	open := mustServeOpen(t, p, ServeOpenRequest{Tenants: serveTestTenants()})
	if len(open.Tenants) != 4 {
		t.Fatalf("opened %d tenants, want 4", len(open.Tenants))
	}
	for _, ti := range open.Tenants {
		if ti.ServiceNS <= 0 || ti.IntervalNS <= 0 || ti.BoundNS <= 0 {
			t.Errorf("tenant %s has degenerate lane params: %+v", ti.Name, ti)
		}
	}
	const perTenant = 300
	for seq := 0; seq < perTenant; seq++ {
		for _, ten := range serveTestTenants() {
			var rep ServeReply
			if err := p.Serve(ServeRequest{Tenant: ten.Name, Seq: seq}, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Seq != seq {
				t.Fatalf("tenant %s: reply seq %d, want %d", ten.Name, rep.Seq, seq)
			}
			if rep.Admitted && rep.ServiceNS <= 0 {
				t.Fatalf("tenant %s seq %d admitted with no service charge", ten.Name, seq)
			}
			if !rep.Admitted && rep.RetryAfterNS <= 0 {
				t.Fatalf("tenant %s seq %d shed with no retry-after", ten.Name, seq)
			}
		}
	}
	var rep ServeReply
	if err := p.Serve(ServeRequest{Tenant: "nobody", Seq: 0}, &rep); err == nil {
		t.Error("unknown tenant served")
	}

	var stats ServeStatsReply
	if err := p.ServeStats(struct{}{}, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Open {
		t.Error("stats report closed deployment")
	}
	if stats.Offered != 4*perTenant {
		t.Errorf("offered %d, want %d", stats.Offered, 4*perTenant)
	}
	if stats.Admitted+stats.Shed != stats.Offered {
		t.Errorf("admitted %d + shed %d != offered %d", stats.Admitted, stats.Shed, stats.Offered)
	}
	if len(stats.Violations) != 0 {
		t.Errorf("serve invariants violated: %v", stats.Violations)
	}
	perTen := make(map[string]ServeTenantStats)
	for _, ts := range stats.PerTenant {
		perTen[ts.Name] = ts
	}
	for _, name := range []string{"calm-a", "calm-b"} {
		if s := perTen[name]; s.Shed != 0 || s.Admitted != perTenant {
			t.Errorf("in-quota tenant %s shed %d of %d", name, s.Shed, s.Offered)
		}
	}
	for _, name := range []string{"hot-a", "hot-b"} {
		if s := perTen[name]; s.Shed == 0 {
			t.Errorf("overloaded tenant %s never shed", name)
		}
	}
	if stats.Batches == 0 || stats.BatchMeanSize <= 0 {
		t.Errorf("no deciding lock acquisitions accounted: %+v", stats)
	}
	if stats.BudgetNS <= 0 {
		t.Error("no §6.9 budget derived")
	}

	var cl ServeCloseReply
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if cl.Stats.Open {
		t.Error("close reports open deployment")
	}
	if cl.Stats.Offered != stats.Offered || cl.Stats.Digest != stats.Digest {
		t.Errorf("close stats drifted from live stats: %+v vs %+v", cl.Stats, stats)
	}
	if err := p.Serve(ServeRequest{Tenant: "calm-a", Seq: perTenant}, &rep); err == nil {
		t.Error("serve accepted after close")
	}
	if err := p.ServeStats(struct{}{}, &stats); err == nil {
		t.Error("stats answered after close")
	}
}

// driveServe pushes perTenant requests for every tenant through p.Serve.
// With callers == 0 one goroutine round-robins the tenants in seq order.
// Otherwise each tenant gets callers goroutines: caller c sends the tenant's
// seqs c, c+callers, c+2*callers, … one call at a time, so cross-tenant
// interleaving is scrambled and, with callers > 1, a tenant's seqs also
// arrive ahead of its cursor and park until a predecessor's caller releases
// them.
func driveServe(t testing.TB, p *Planner, tenants []ServeTenant, perTenant, callers int) {
	t.Helper()
	if callers == 0 {
		for seq := 0; seq < perTenant; seq++ {
			for _, ten := range tenants {
				var rep ServeReply
				if err := p.Serve(ServeRequest{Tenant: ten.Name, Seq: seq}, &rep); err != nil {
					t.Error(err)
					return
				}
			}
		}
		return
	}
	var wg sync.WaitGroup
	for _, ten := range tenants {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(name string, first int) {
				defer wg.Done()
				for seq := first; seq < perTenant; seq += callers {
					var rep ServeReply
					if err := p.Serve(ServeRequest{Tenant: name, Seq: seq}, &rep); err != nil {
						t.Error(err)
						return
					}
				}
			}(ten.Name, c)
		}
	}
	wg.Wait()
}

// TestServeDigestSerialVsConcurrent is the metamorphic determinism gate: the
// same per-tenant request streams must produce bit-identical per-tenant and
// folded digests whether they are sent serially, concurrently across
// tenants, or pipelined within each tenant (seqs arriving out of order and
// decided by whichever caller releases the hold chain) — including under
// load shed, so shed decisions are in the digest too.
func TestServeDigestSerialVsConcurrent(t *testing.T) {
	tenants := serveTestTenants()
	const perTenant = 500
	run := func(callers int) ServeStatsReply {
		p := New()
		mustServeOpen(t, p, ServeOpenRequest{Tenants: tenants})
		driveServe(t, p, tenants, perTenant, callers)
		var cl ServeCloseReply
		if err := p.ServeClose(struct{}{}, &cl); err != nil {
			t.Fatal(err)
		}
		return cl.Stats
	}
	serial := run(0)
	if serial.Shed == 0 {
		t.Fatal("serial run never shed; digest identity not exercised under load-shed")
	}
	serialTen := make(map[string]ServeTenantStats)
	for _, ts := range serial.PerTenant {
		serialTen[ts.Name] = ts
	}
	for _, mode := range []struct {
		name    string
		callers int
	}{{"concurrent", 1}, {"pipelined", 4}} {
		for round := 0; round < 3; round++ {
			conc := run(mode.callers)
			if conc.Digest != serial.Digest {
				t.Fatalf("%s round %d: digest %s != serial %s", mode.name, round, conc.Digest, serial.Digest)
			}
			if conc.Admitted != serial.Admitted || conc.Shed != serial.Shed {
				t.Fatalf("%s round %d: admitted/shed %d/%d != serial %d/%d",
					mode.name, round, conc.Admitted, conc.Shed, serial.Admitted, serial.Shed)
			}
			for _, ts := range conc.PerTenant {
				if want := serialTen[ts.Name]; ts.Digest != want.Digest {
					t.Fatalf("%s round %d: tenant %s digest %s != serial %s", mode.name, round, ts.Name, ts.Digest, want.Digest)
				}
			}
		}
	}
}

// TestServeReorderedIntake exercises the per-tenant hold buffer: seqs
// arriving ahead of the cursor park until the gap fills, then the whole
// chain decides in seq order. A stale (already decided) seq errors.
func TestServeReorderedIntake(t *testing.T) {
	p := New()
	mustServeOpen(t, p, ServeOpenRequest{
		Tenants: []ServeTenant{{Name: "a", App: "resnet50", Quota: 0.5, RateRPS: 10}},
	})
	const n = 4
	replies := make([]ServeReply, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	// Send seqs 3,2,1 first; they must park. Then seq 0 releases the chain.
	for seq := n - 1; seq >= 1; seq-- {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			errs[seq] = p.Serve(ServeRequest{Tenant: "a", Seq: seq}, &replies[seq])
		}(seq)
	}
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = p.Serve(ServeRequest{Tenant: "a", Seq: 0}, &replies[0])
	}()
	wg.Wait()
	for seq := 0; seq < n; seq++ {
		if errs[seq] != nil {
			t.Fatalf("seq %d: %v", seq, errs[seq])
		}
		if replies[seq].Seq != seq || !replies[seq].Admitted {
			t.Fatalf("seq %d decided wrong: %+v", seq, replies[seq])
		}
	}
	// Replay of a decided seq is an error, never a second decision.
	var rep ServeReply
	if err := p.Serve(ServeRequest{Tenant: "a", Seq: 1}, &rep); err == nil {
		t.Error("stale seq decided twice")
	}
	var stats ServeStatsReply
	if err := p.ServeStats(struct{}{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Offered != n || stats.Admitted != n {
		t.Errorf("offered/admitted %d/%d, want %d/%d", stats.Offered, stats.Admitted, n, n)
	}
	var cl ServeCloseReply
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
}

// TestServeCloseFlushesGap: a client that abandons its pipeline mid-stream
// (seq 1 sent, seq 0 never) leaves a parked call that can never decide;
// ServeClose must fail it with an error rather than hang.
func TestServeCloseFlushesGap(t *testing.T) {
	old := serveDrainDeadline
	serveDrainDeadline = 50 * time.Millisecond
	defer func() { serveDrainDeadline = old }()

	p := New()
	mustServeOpen(t, p, ServeOpenRequest{
		Tenants: []ServeTenant{{Name: "a", App: "resnet50", Quota: 0.5, RateRPS: 10}},
	})
	errCh := make(chan error, 1)
	go func() {
		var rep ServeReply
		errCh <- p.Serve(ServeRequest{Tenant: "a", Seq: 1}, &rep)
	}()
	time.Sleep(20 * time.Millisecond)
	var cl ServeCloseReply
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("gapped request decided instead of flushed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gapped Serve call hung across close")
	}
}

// TestServeOverRPCParallel drives the deployment through the real net/rpc
// surface with pipelined parallel clients — the configuration the race
// detector suite (make test-race) must prove clean. net/rpc runs each call
// on its own goroutine, so pipelining here also soaks the reorder path.
func TestServeOverRPCParallel(t *testing.T) {
	srv := rpc.NewServer()
	p := New()
	if err := srv.RegisterName("Planner", p.RPC()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Accept(l)

	tenants := serveTestTenants()
	const perTenant = 400
	const window = 16

	dial := func() *rpc.Client {
		cl, err := rpc.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	admin := dial()
	defer admin.Close()
	var open ServeOpenReply
	if err := admin.Call("Planner.ServeOpen", ServeOpenRequest{Tenants: tenants}, &open); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, ten := range tenants {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			cl := dial()
			defer cl.Close()
			calls := make([]*rpc.Call, 0, window)
			reap := func() {
				c := calls[0]
				copy(calls, calls[1:])
				calls = calls[:len(calls)-1]
				<-c.Done
				if c.Error != nil {
					t.Error(c.Error)
				}
			}
			for seq := 0; seq < perTenant; seq++ {
				if len(calls) == window {
					reap()
				}
				calls = append(calls, cl.Go("Planner.Serve", ServeRequest{Tenant: name, Seq: seq}, &ServeReply{}, make(chan *rpc.Call, 1)))
			}
			for len(calls) > 0 {
				reap()
			}
		}(ten.Name)
	}
	wg.Wait()

	var cl ServeCloseReply
	if err := admin.Call("Planner.ServeClose", struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(tenants) * perTenant); cl.Stats.Offered != want {
		t.Errorf("offered %d, want %d", cl.Stats.Offered, want)
	}
	if cl.Stats.Admitted+cl.Stats.Shed != cl.Stats.Offered {
		t.Errorf("admitted %d + shed %d != offered %d", cl.Stats.Admitted, cl.Stats.Shed, cl.Stats.Offered)
	}
	if len(cl.Stats.Violations) != 0 {
		t.Errorf("serve invariants violated: %v", cl.Stats.Violations)
	}
}

// BenchmarkServeSteadyState measures the serve fast path end to end inside
// the process: an in-order call deciding inline under its tenant's mutex,
// with cached instruments. The steady state must not allocate —
// BENCH_sim.json gates allocs/op exactly.
func BenchmarkServeSteadyState(b *testing.B) {
	p := New()
	tenants := serveTestTenants()
	mustServeOpen(b, p, ServeOpenRequest{Tenants: tenants})
	names := make([]string, len(tenants))
	for i, ten := range tenants {
		names[i] = ten.Name
	}
	// Warm the lanes and instrument hot paths before measuring.
	var rep ServeReply
	seqs := make([]int, len(names))
	warm := 2048
	for i := 0; i < warm; i++ {
		k := i % len(names)
		if err := p.Serve(ServeRequest{Tenant: names[k], Seq: seqs[k]}, &rep); err != nil {
			b.Fatal(err)
		}
		seqs[k]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(names)
		if err := p.Serve(ServeRequest{Tenant: names[k], Seq: seqs[k]}, &rep); err != nil {
			b.Fatal(err)
		}
		seqs[k]++
	}
	b.StopTimer()
	var cl ServeCloseReply
	if err := p.ServeClose(struct{}{}, &cl); err != nil {
		b.Fatal(err)
	}
	if got := fmt.Sprintf("%d", cl.Stats.Offered); got == "" {
		b.Fatal("unreachable")
	}
}
