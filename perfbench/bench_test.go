package main

import (
	"encoding/json"
	"math"
	"net"
	"net/rpc"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bless/internal/harness"
	"bless/internal/serveapi"
)

func TestInputsDeterministicInSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) any{
		"colo":  func(s int64) any { return coloInputs(s) },
		"fleet": func(s int64) any { return scenarioKeys(fleetInputs(s)) },
		"serve": func(s int64) any { return serveInputs(s) },
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// scenarioKeys drops the fleet scenarios' func-valued fields, which
// DeepEqual cannot compare.
func scenarioKeys(scs []harness.FleetScenario) []any {
	var out []any
	for _, sc := range scs {
		out = append(out, []any{sc.Seed, sc.Tenants, sc.Devices, sc.Horizon, sc.Shards, sc.Migrations})
	}
	return out
}

func TestColoInputsShape(t *testing.T) {
	sessions := coloInputs(3)
	if len(sessions) != coloBlocks*7*coloPerSize {
		t.Fatalf("%d sessions, want %d", len(sessions), coloBlocks*7*coloPerSize)
	}
	appCount := map[string]int{}
	for i, s := range sessions {
		if n := len(s.Clients); n < 2 || n > 8 {
			t.Fatalf("session %d has %d clients", i, n)
		}
		if s.Load < 0.5 || s.Load > 0.9 {
			t.Errorf("session %d load %g outside [0.5, 0.9]", i, s.Load)
		}
		var q float64
		seen := map[string]bool{}
		for _, c := range s.Clients {
			q += c.Quota
			if seen[c.App] {
				t.Errorf("session %d repeats app %s", i, c.App)
			}
			seen[c.App] = true
			appCount[c.App]++
			if c.Pattern.Arrivals == nil {
				t.Errorf("session %d client %s is closed-loop", i, c.App)
			}
		}
		if math.Abs(q-1) > 1e-9 {
			t.Errorf("session %d quotas sum to %g", i, q)
		}
	}
	// Stratification: every app appears equally often.
	for app, n := range appCount {
		if want := coloBlocks * coloPerSize * 35 / len(coloApps); n != want {
			t.Errorf("app %s appears %d times, want %d", app, n, want)
		}
	}
}

func TestServeInputsQuotaSplit(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var q float64
		for i, ten := range serveInputs(seed) {
			q += ten.Quota
			soloMS := 0.0
			for _, a := range serveApps {
				if a.name == ten.App {
					soloMS = a.soloMS
				}
			}
			capacity := ten.Quota / soloMS * 1000
			if load := ten.RateRPS / capacity; inQuota(i) != (load < 1) {
				t.Errorf("seed %d tenant %s: offered %.2fx its quota rate, in-quota=%v", seed, ten.Name, load, inQuota(i))
			}
		}
		if q > 1 {
			t.Errorf("seed %d: quotas sum to %g > 1", seed, q)
		}
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{20, 90, 180, 999, 1000, 1001, 5000, 100000} {
		q := tailQuantile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, q)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it, want >= 10", n, 100*q, beyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: tail at p%g, want p99", n, 100*q)
		}
		if n < 1000 && beyond != 10 {
			t.Errorf("n=%d: p%g has %d beyond, want exactly 10 (the highest such percentile)", n, 100*q, beyond)
		}
	}
	if got := tailQuantile(5); got != 0.5 {
		t.Errorf("tailQuantile(5) = %g, want the median", got)
	}
}

func TestPairedAlternatesAndSums(t *testing.T) {
	var order []string
	ratio, err := paired(4, func(i int) (time.Duration, error) {
		order = append(order, "a")
		return time.Millisecond, nil
	}, func(i int) (time.Duration, error) {
		order = append(order, "b")
		return 3 * time.Millisecond, nil
	})
	if err != nil || ratio != 3 {
		t.Errorf("paired = %g, %v; want 3, nil", ratio, err)
	}
	if got := strings.Join(order, ""); got != "abbaabba" {
		t.Errorf("call order %s, want abbaabba", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// stallPlanner answers Serve like blessd but holds every reply while a
// stall is in progress: the request with seq stallSeq of tenant stallTenant
// starts the stall.
type stallPlanner struct {
	mu          sync.Mutex
	stallTenant string
	stallSeq    int
	stall       time.Duration
}

func (p *stallPlanner) Serve(req serveapi.ServeRequest, rep *serveapi.ServeReply) error {
	p.mu.Lock()
	if req.Tenant == p.stallTenant && req.Seq == p.stallSeq {
		time.Sleep(p.stall)
	}
	p.mu.Unlock()
	rep.Seq = req.Seq
	rep.Admitted = true
	return nil
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	srv := rpc.NewServer()
	tenants := []serveapi.ServeTenant{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	const stall = 150 * time.Millisecond
	if err := srv.RegisterName("Planner", &stallPlanner{stallTenant: "a", stallSeq: 200, stall: stall}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Accept(l)
	d := &daemon{}
	for i := 0; i < serveConns; i++ {
		c, err := rpc.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		d.conns = append(d.conns, c)
	}
	const rate = 4000
	res := openLoop(d, tenants, rate, serveWindow)
	if res.failed != 0 {
		t.Fatalf("%d failed requests", res.failed)
	}
	if want := int(rate * serveWindow.Seconds()); res.sent != want || len(res.lateMS) != want {
		t.Fatalf("sent %d, %d lateness samples; want %d", res.sent, len(res.lateMS), want)
	}
	_, n := res.windowed(0.5)
	if n != res.sent {
		t.Fatalf("%d latency samples for %d requests", n, res.sent)
	}
	// Request seq 200 of tenant a is due at 800/rate = 200ms; every request
	// due during the stall waits for its end, so latencies timed from the
	// due time reach the stall length, while send-to-reply times of the
	// requests behind it would not.
	var lat []float64
	for _, w := range res.latMS {
		lat = append(lat, w...)
	}
	if mx := quantile(lat, 1); mx < ms(stall)*0.9 {
		t.Errorf("max latency %.1fms, want about the %v stall", mx, stall)
	}
	stalled := 0
	for _, x := range lat {
		if x > ms(stall)/2 {
			stalled++
		}
	}
	if stalled < 100 {
		t.Errorf("%d requests saw more than half the stall; the requests due during it should", stalled)
	}
	for _, x := range res.lateMS {
		if x < 0 {
			t.Fatalf("negative lateness %gms: a request was sent before it was due", x)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bless/internal/sim.(*GPU).reschedule":                "bless/internal/sim",
		"bless/internal/core.(*Runtime).startSquad.func1":     "bless/internal/core",
		"bless/internal/harness.ForEachParallel[...].func1":   "bless/internal/harness",
		"bless/cmd/blessd/internal/planner.(*serveState).run": "bless/cmd/blessd/internal/planner",
		"runtime.mallocgc":                     "runtime",
		"net/rpc.(*Server).ServeCodec":         "net/rpc",
		"encoding/gob.(*Decoder).decodeStruct": "encoding/gob",
		"internal/poll.(*FD).Read":             "internal/poll",
		"main.main":                            "main",
		"bless/internal/fleet.(*Fleet).Run[go.shape.int_0/x/y].foo": "bless/internal/fleet",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostOwnedFrame(t *testing.T) {
	p := &cpuProfile{
		Stacks: [][]string{
			{"runtime.mallocgc", "bless/internal/sim.(*GPU).reschedule", "bless/internal/core.(*Runtime).startSquad"},
			{"bless/internal/core.Determine", "bless/internal/harness.Run"},
			{"runtime.gcBgMarkWorker"},
			{"bless/internal/simx.F"}, // not bless/internal/sim
			{"bless/internal/metrics.(*Digest).Observe", "bless/internal/sim.(*Engine).Run"},
		},
		NS: []int64{40, 30, 20, 5, 5},
	}
	share, total := attribute(p, simBuckets)
	if total != 100 {
		t.Fatalf("total %d, want 100", total)
	}
	for name, want := range map[string]float64{"sim": 0.40, "core": 0.30, "other": 0.20, "harness": 0.10} {
		if math.Abs(share[name]-want) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", name, share[name], want)
		}
	}

	serve := &cpuProfile{
		Stacks: [][]string{
			{"reflect.Value.Field", "encoding/gob.(*Decoder).decodeStruct", "net/rpc.(*Server).ServeCodec"},
			{"runtime.selectgo", "bless/cmd/blessd/internal/planner.(*serveState).run"},
			{"bless/internal/core.(*ServeLane).Decide", "bless/cmd/blessd/internal/planner.(*serveWorker).decideChain"},
			{"runtime/pprof.profileWriter", "net/http.(*conn).serve"},
		},
		NS: []int64{50, 30, 10, 10},
	}
	share, _ = attribute(serve, serveBuckets)
	for name, want := range map[string]float64{"rpc": 0.5, "planner": 0.3, "sched": 0.1, "debug": 0.1} {
		if math.Abs(share[name]-want) > 1e-12 {
			t.Errorf("serve share[%s] = %g, want %g", name, share[name], want)
		}
	}
}

//go:noinline
func busyLoop(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	c, err := startCPU()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	busyLoop(300 * time.Millisecond)
	p, err := c.stop()
	if err != nil {
		t.Fatal(err)
	}
	var busy int64
	var total int64
	for i, stack := range p.Stacks {
		total += p.NS[i]
		if len(stack) > 0 && strings.HasSuffix(stack[0], ".busyLoop") {
			busy += p.NS[i]
		}
	}
	if total == 0 || float64(busy) < 0.5*float64(total) {
		t.Errorf("busyLoop has %d of %d sampled ns as leaf, want most", busy, total)
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{list: []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "run", Start: 50, End: 90},
	}}
	got := map[string]spanStat{}
	for _, st := range s.summary() {
		got[st.Name] = st
	}
	if r := got["round"]; r.Total != 100 || r.Self != 30 || r.Count != 1 {
		t.Errorf("round: %+v, want total 100 self 30", r)
	}
	if r := got["run"]; r.Total != 70 || r.Self != 70 || r.Count != 2 {
		t.Errorf("run: %+v, want total 70 self 70 over 2", r)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	strip := func(ms []metric) []metric {
		out := append([]metric(nil), ms...)
		for i := range out {
			out[i].Moves, out[i].On = "", ""
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndCatalog()) {
		t.Errorf("BENCHMARK.json end_to_end %+v != catalog %+v", spec.EndToEnd, endToEndCatalog())
	}
	if !reflect.DeepEqual(spec.PerLayer, strip(perLayerCatalog())) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalog")
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
