package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/rpc"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"bless/internal/core"
	"bless/internal/serveapi"
	"bless/internal/sim"
)

// serve: a blessd daemon built from the same tree, driven over two TCP
// connections with the internal/serveapi wire types. The closed loop is
// saturation with a fixed request count per tenant, repeated in rounds on
// fresh deployments (rps); the open loop offers one fixed wall rate in
// windows on fresh deployments (latency, timed from each request's due
// time). The two interleave over the measured phase.

const (
	// serveConns is the TCP connection count and the deployment's intake
	// worker count: at most the two cores the load generator shares.
	serveConns = 2
	// servePerTenant is the closed loop's request count per tenant per
	// round.
	servePerTenant = 2500
	// serveInflight is each tenant's pipelined window in the closed loop,
	// deep enough that the two processes, not the wake-up latency between
	// them, bound the rate.
	serveInflight = 64
	// serveOpenLoopRPS is the open loop's offered wall rate over all tenants, a
	// constant. It sits at about a tenth of the saturation rate measured
	// when the benchmark was defined (2-core x86 VM): at half of it the
	// two processes contend for both cores and the latency figures varied
	// by a fifth between runs.
	serveOpenLoopRPS = 5000
	// serveWindow is the open-loop window: each window's p50 and p99 are
	// computed apart and the reported figure is their median over
	// windows, so one slow stretch of the shared host moves it little.
	serveWindow = 500 * time.Millisecond
	// serveRoundsPerWindow is how many closed-loop rounds run between two
	// open-loop windows.
	serveRoundsPerWindow = 3
)

// daemon is one running blessd.
type daemon struct {
	cmd      *exec.Cmd
	addrs    *addrWatcher
	conns    []*rpc.Client
	debugURL string
}

// addrWatcher scans blessd's log for its listen addresses.
type addrWatcher struct {
	mu         sync.Mutex
	buf        bytes.Buffer
	rpc, debug string
	ready      chan struct{}
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rpc != "" {
		return len(p), nil
	}
	w.buf.Write(p)
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if i := strings.Index(line, "debug endpoints on http://"); i >= 0 {
			rest := line[i+len("debug endpoints on http://"):]
			w.debug = rest[:strings.IndexByte(rest, '/')]
		}
		if i := strings.Index(line, "planning service on "); i >= 0 {
			w.rpc = strings.TrimSpace(line[i+len("planning service on "):])
			close(w.ready)
		}
	}
	return len(p), nil
}

// startDaemon starts blessd on loopback ports and dials it.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{addrs: &addrWatcher{ready: make(chan struct{})}}
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-debug", "127.0.0.1:0")
	d.cmd.Stderr = d.addrs
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting blessd: %w", err)
	}
	select {
	case <-d.addrs.ready:
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("blessd did not report its address")
	}
	d.debugURL = "http://" + d.addrs.debug
	for i := 0; i < serveConns; i++ {
		c, err := rpc.Dial("tcp", d.addrs.rpc)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("dialing blessd: %w", err)
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// stop closes the connections, kills blessd, waits for it, and returns its
// peak resident set in MB.
func (d *daemon) stop() float64 {
	for _, c := range d.conns {
		c.Close()
	}
	_ = d.cmd.Process.Kill() // already-exited is fine; Wait reports the rest
	_ = d.cmd.Wait()         // killed: the exit status is expected
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (d *daemon) open(tenants []serveapi.ServeTenant, workers int, trace bool) (serveapi.ServeOpenReply, error) {
	var reply serveapi.ServeOpenReply
	err := d.conns[0].Call("Planner.ServeOpen", serveapi.ServeOpenRequest{
		Tenants: tenants, GPUs: 1, Workers: workers, Trace: trace,
	}, &reply)
	return reply, err
}

func (d *daemon) stats() (serveapi.ServeStatsReply, error) {
	var reply serveapi.ServeStatsReply
	err := d.conns[0].Call("Planner.ServeStats", struct{}{}, &reply)
	return reply, err
}

func (d *daemon) close() (serveapi.ServeStatsReply, error) {
	var reply serveapi.ServeCloseReply
	err := d.conns[0].Call("Planner.ServeClose", struct{}{}, &reply)
	return reply.Stats, err
}

// memstats reads blessd's cumulative allocation bytes and GC CPU fraction
// from its expvar endpoint.
func (d *daemon) memstats() (totalAlloc, gcFraction float64, err error) {
	resp, err := http.Get(d.debugURL + "/debug/vars")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			TotalAlloc    float64
			GCCPUFraction float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v.Memstats.TotalAlloc, v.Memstats.GCCPUFraction, nil
}

// cpuProfile fetches a CPU profile of blessd over seconds.
func (d *daemon) cpuProfile(ctx context.Context, seconds int) (*cpuProfile, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.debugURL, seconds), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("blessd profile: %s", resp.Status)
	}
	return parseCPUProfile(b)
}

// serveSetup starts blessd setupRuns times, each timed from exec until its
// RPC port answers and ServeOpen has placed and profiled the tenants. It
// keeps the last daemon running and returns the median set-up time in
// seconds and the ServeOpen times in milliseconds.
func (r *run) serveSetup(tenants []serveapi.ServeTenant) (*daemon, float64, []float64, error) {
	var setups, opens []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(r.blessd)
		if err != nil {
			return nil, 0, nil, err
		}
		to := time.Now()
		if _, err := d.open(tenants, serveConns, false); err != nil {
			d.stop()
			return nil, 0, nil, fmt.Errorf("ServeOpen: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, ms(time.Since(to)))
		if _, err := d.close(); err != nil {
			d.stop()
			return nil, 0, nil, fmt.Errorf("ServeClose: %w", err)
		}
	}
	return d, median(setups), opens, nil
}

// closedRound is one closed-loop round.
type closedRound struct {
	wall  time.Duration
	stats serveapi.ServeStatsReply
}

// closedLoopRound opens a deployment, drives servePerTenant requests per
// tenant through serveInflight-deep pipelines, and closes it. Wire errors,
// wrong or missing replies, in-quota sheds, offered != sent and server
// violations count as failures.
func (r *run) closedLoopRound(d *daemon, tenants []serveapi.ServeTenant, workers int, trace bool) (closedRound, error) {
	var out closedRound
	if _, err := d.open(tenants, workers, trace); err != nil {
		return out, fmt.Errorf("ServeOpen: %w", err)
	}
	bad := make([]int64, len(tenants))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, t := range tenants {
		wg.Add(1)
		go func(i int, name string, cl *rpc.Client) {
			defer wg.Done()
			bad[i] = drivePipelined(cl, name, servePerTenant, serveInflight, inQuota(i))
		}(i, t.Name, d.conns[i%len(d.conns)])
	}
	wg.Wait()
	out.wall = time.Since(t0)
	st, err := d.stats()
	if err != nil {
		return out, fmt.Errorf("ServeStats: %w", err)
	}
	closed, err := d.close()
	if err != nil {
		return out, fmt.Errorf("ServeClose: %w", err)
	}
	out.stats = st
	var failed int64
	for _, b := range bad {
		failed += b
	}
	r.op(int64(len(tenants)*servePerTenant), failed)
	r.checkServeClose(closed, tenants, servePerTenant)
	return out, nil
}

// checkServeClose checks a closed deployment's final accounting.
func (r *run) checkServeClose(st serveapi.ServeStatsReply, tenants []serveapi.ServeTenant, sent int) {
	r.check(len(st.Violations) == 0, "serve: ServeClose reports violations: %v", st.Violations)
	r.check(len(st.PerTenant) == len(tenants), "serve: %d tenants in stats, want %d", len(st.PerTenant), len(tenants))
	for i, pt := range st.PerTenant {
		r.check(pt.Offered == uint64(sent), "serve: tenant %s offered %d, sent %d", pt.Name, pt.Offered, sent)
		if i < len(tenants) && inQuota(i) {
			r.check(pt.Shed == 0, "serve: in-quota tenant %s shed %d", pt.Name, pt.Shed)
		}
	}
}

// drivePipelined runs one tenant's closed loop: up to inflight pipelined
// calls, the next issued as soon as the oldest returns. It returns the
// number of failed requests.
func drivePipelined(cl *rpc.Client, name string, total, inflight int, inQuota bool) int64 {
	var bad int64
	window := make([]*rpc.Call, 0, inflight)
	reap := func(c *rpc.Call) {
		<-c.Done
		rep := c.Reply.(*serveapi.ServeReply)
		req := c.Args.(serveapi.ServeRequest)
		if c.Error != nil || rep.Seq != req.Seq || (inQuota && !rep.Admitted) {
			bad++
		}
	}
	for seq := 0; seq < total; seq++ {
		if len(window) == inflight {
			reap(window[0])
			window = append(window[:0], window[1:]...)
		}
		window = append(window, cl.Go("Planner.Serve", serveapi.ServeRequest{Tenant: name, Seq: seq}, &serveapi.ServeReply{}, make(chan *rpc.Call, 1)))
	}
	for _, c := range window {
		reap(c)
	}
	return bad
}

// openLoopResult is the open loop's outcome.
type openLoopResult struct {
	latMS  [][]float64 // per serveWindow of due times
	lateMS []float64
	sent   int
	failed int64
}

// add appends another open-loop run's windows and counts.
func (o *openLoopResult) add(w openLoopResult) {
	o.latMS = append(o.latMS, w.latMS...)
	o.lateMS = append(o.lateMS, w.lateMS...)
	o.sent += w.sent
	o.failed += w.failed
}

// windowed returns the median over windows of each window's q-quantile,
// and the sample count.
func (o openLoopResult) windowed(q float64) (float64, int) {
	var per []float64
	n := 0
	for _, w := range o.latMS {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
			n += len(w)
		}
	}
	return median(per), n
}

// openLoop offers requests at rate (per second, over all tenants) for dur,
// rounded down to whole latency windows: request i is due at start +
// i/rate and goes to tenant i mod n as its seq i/n, on connection tenant
// mod conns. Latency runs from the
// due time to the reply's arrival, so a stall delays every request due
// behind it; lateness is how far the generator sent after the due time.
func openLoop(d *daemon, tenants []serveapi.ServeTenant, rate float64, dur time.Duration) openLoopResult {
	n := len(tenants)
	windows := max(1, int(dur/serveWindow))
	total := int(rate*serveWindow.Seconds()) * windows
	interval := time.Duration(float64(time.Second) / rate)
	dueAt := func(i int) time.Duration { return time.Duration(i) * interval }
	res := openLoopResult{lateMS: make([]float64, 0, total)}
	// Replies land on one buffered channel per connection, sized for every
	// request the connection can carry so net/rpc never drops a reply.
	dones := make([]chan *rpc.Call, len(d.conns))
	for i := range dones {
		dones[i] = make(chan *rpc.Call, total/len(d.conns)+1)
	}
	// Every buffer the reply collectors fill is allocated up front, so the
	// generator process does not pause for growth while it measures.
	perWindow := total / windows
	lats := make([][][]float64, len(d.conns))
	for ci := range lats {
		lats[ci] = make([][]float64, windows)
		for w := range lats[ci] {
			lats[ci][w] = make([]float64, 0, perWindow/len(d.conns)+n)
		}
	}
	seen := make([]bool, total) // by request index seq*n + tenant
	bads := make([]int64, len(d.conns))
	counts := make([]int, len(d.conns))
	for i := 0; i < total; i++ {
		counts[(i%n)%len(d.conns)]++
	}
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range d.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			timeout := time.After(dur + 30*time.Second)
			for k := 0; k < counts[ci]; k++ {
				select {
				case c := <-dones[ci]:
					now := time.Since(start)
					req := c.Args.(serveapi.ServeRequest)
					rep := c.Reply.(*serveapi.ServeReply)
					ti := tenantIndex(tenants, req.Tenant)
					i := req.Seq*n + ti
					if c.Error != nil || rep.Seq != req.Seq || ti < 0 || i >= total || seen[i] || (inQuota(ti) && !rep.Admitted) {
						bads[ci]++
						continue
					}
					seen[i] = true
					due := dueAt(i)
					w := int(due / serveWindow)
					lats[ci][w] = append(lats[ci][w], ms(now-due))
				case <-timeout:
					bads[ci] += int64(counts[ci] - k) // lost replies
					return
				}
			}
		}(ci)
	}
	for i := 0; i < total; i++ {
		due := dueAt(i)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ti := i % n
		ci := ti % len(d.conns)
		res.lateMS = append(res.lateMS, ms(time.Since(start)-due))
		d.conns[ci].Go("Planner.Serve", serveapi.ServeRequest{Tenant: tenants[ti].Name, Seq: i / n}, &serveapi.ServeReply{}, dones[ci])
	}
	wg.Wait()
	res.sent = total
	res.latMS = make([][]float64, windows)
	for ci := range d.conns {
		for w := range lats[ci] {
			res.latMS[w] = append(res.latMS[w], lats[ci][w]...)
		}
		res.failed += bads[ci]
	}
	return res
}

// openLoopWindow runs one open-loop window on a fresh deployment, checks
// its accounting, and adds it to ol.
func (r *run) openLoopWindow(d *daemon, tenants []serveapi.ServeTenant, ol *openLoopResult) error {
	if _, err := d.open(tenants, serveConns, false); err != nil {
		return fmt.Errorf("ServeOpen: %w", err)
	}
	// Collect the closed-loop rounds' garbage now rather than in the
	// middle of the window, where the pause would land on the generator.
	runtime.GC()
	w := openLoop(d, tenants, serveOpenLoopRPS, serveWindow)
	closed, err := d.close()
	if err != nil {
		return fmt.Errorf("ServeClose: %w", err)
	}
	r.op(int64(w.sent), w.failed)
	r.check(w.sent%len(tenants) == 0, "serve: open loop sent %d, not a whole number per tenant", w.sent)
	r.checkServeClose(closed, tenants, w.sent/len(tenants))
	ol.add(w)
	return nil
}

func tenantIndex(tenants []serveapi.ServeTenant, name string) int {
	for i, t := range tenants {
		if t.Name == name {
			return i
		}
	}
	return -1
}

func runServe(r *run) error {
	if r.blessd == "" {
		return fmt.Errorf("the serve workload needs -blessd")
	}
	if _, err := os.Stat(r.blessd); err != nil {
		return fmt.Errorf("blessd binary: %w", err)
	}
	tenants := serveInputs(r.seed)
	d, setup, opens, err := r.serveSetup(tenants)
	if err != nil {
		return err
	}
	err = r.serveMeasure(d, tenants)
	r.e2e["rss_mb"] = d.stop()
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	if r.traced {
		r.layer["serve.open_ms"] = median(opens)
		r.layer["profiler.profile_ms"], err = r.profileProbe(serveProfileSet(tenants))
	}
	return err
}

// serveMeasure runs both phases, the checks and, on a traced run, the
// probes against a started daemon.
func (r *run) serveMeasure(d *daemon, tenants []serveapi.ServeTenant) error {
	budget := r.budget()
	if r.traced {
		budget /= 2
	}

	// The measured phase interleaves the two loads so that each samples
	// the whole run: serveRoundsPerWindow closed-loop rounds, then one
	// open-loop window on a fresh deployment, and again.
	alloc0, _, err := d.memstats()
	if err != nil {
		return err
	}
	var (
		rounds []closedRound
		ol     openLoopResult
	)
	start := time.Now()
	for len(rounds) < 3 || len(ol.latMS) < 3 || time.Since(start) < budget {
		for k := 0; k < serveRoundsPerWindow; k++ {
			rd, err := r.closedLoopRound(d, tenants, serveConns, false)
			if err != nil {
				return err
			}
			rounds = append(rounds, rd)
		}
		if err := r.openLoopWindow(d, tenants, &ol); err != nil {
			return err
		}
	}
	alloc1, gcFrac, err := d.memstats()
	if err != nil {
		return err
	}
	ref := rounds[0].stats
	var rps, decNS, batch []float64
	for _, rd := range rounds {
		r.check(rd.stats.Digest == ref.Digest, "serve: round digest %s != first round %s", rd.stats.Digest, ref.Digest)
		rps = append(rps, float64(len(tenants)*servePerTenant)/rd.wall.Seconds())
		decNS = append(decNS, rd.stats.DecisionMeanNS)
		batch = append(batch, rd.stats.BatchMeanSize)
	}
	r.check(ref.Shed > 0, "serve: the overloaded tenants never shed")
	p50, n := ol.windowed(0.5)
	p99, _ := ol.windowed(0.99)
	r.e2e["rps"] = median(rps)
	r.e2e["lat_p50_ms"] = p50
	r.e2e["lat_p99_ms"] = p99
	fmt.Printf("serve: %d closed-loop rounds of %d requests; open loop at %d/s in %d windows of %v, %d latency samples (p99 has >= 10 beyond in every window)\n",
		len(rounds), len(tenants)*servePerTenant, serveOpenLoopRPS, len(ol.latMS), serveWindow, n)

	// The traced phase: closed-loop rounds in pairs, one untraced and one
	// with blessd's decision trace on, under a CPU profile pulled from its
	// pprof endpoint.
	var prof *cpuProfile
	var overheads []float64
	if r.traced {
		r.startTracing()
		secs := max(1, int(budget.Seconds()))
		var perr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			prof, perr = d.cpuProfile(context.Background(), secs)
		}()
		for finished := false; !finished; {
			ratio, err := paired(2, func(int) (time.Duration, error) {
				rd, err := r.closedLoopRound(d, tenants, serveConns, false)
				return rd.wall, err
			}, func(int) (time.Duration, error) {
				id := r.sp.begin("serve.traced_round", 0)
				rd, err := r.closedLoopRound(d, tenants, serveConns, true)
				r.sp.end(id)
				if err == nil {
					r.check(rd.stats.Digest == ref.Digest, "serve: traced round digest %s != untraced %s", rd.stats.Digest, ref.Digest)
				}
				return rd.wall, err
			})
			if err != nil {
				<-done
				return err
			}
			overheads = append(overheads, ratio-1)
			select {
			case <-done:
				finished = len(overheads) >= 3
			default:
			}
		}
		if perr != nil {
			return perr
		}
	}

	// Output check: the same streams through a 1-worker deployment give
	// the same digest.
	one, err := r.closedLoopRound(d, tenants, 1, false)
	if err != nil {
		return err
	}
	r.check(one.stats.Digest == ref.Digest, "serve: 1-worker digest %s != %d-worker digest %s", one.stats.Digest, serveConns, ref.Digest)

	if !r.traced {
		return nil
	}
	transport, intake, info, err := r.serveProbes(d, tenants)
	if err != nil {
		return err
	}
	shares, _ := attribute(prof, serveBuckets)
	simShares, _ := attribute(prof, simBuckets)
	decisions := float64(len(rounds)*len(tenants)*servePerTenant + ol.sent)
	l := r.layer
	l["sim.cpu_share"] = simShares["sim"]
	l["core.cpu_share"] = simShares["core"]
	l["fleet.cpu_share"] = simShares["fleet"]
	l["go.alloc_kb_per_req"] = (alloc1 - alloc0) / 1024 / decisions
	l["go.gc_cpu_share"] = gcFrac
	l["obs.trace_overhead"] = median(overheads)
	l["serve.transport_us_p50"] = transport
	l["serve.intake_us_p50"] = intake
	l["serve.decision_ns"] = median(decNS)
	l["serve.decide_ns"] = decideNS(info)
	l["serve.batch_mean"] = median(batch)
	l["serve.shed_ratio"] = float64(ref.Shed) / float64(ref.Offered)
	l["serve.gen_late_ms_p99"] = quantile(ol.lateMS, 0.99)
	l["serve.cpu_share.planner"] = shares["planner"]
	l["serve.cpu_share.rpc"] = shares["rpc"]
	l["serve.cpu_share.sched"] = shares["sched"]
	return nil
}

// serveProbes measures sequential round trips on a fresh deployment whose
// lane parameters it returns. Calls alternate between a Serve for an
// unknown tenant, which blessd refuses before intake (the RPC floor), and
// an in-quota Serve, which goes through intake and a decision. It returns
// the floor's p50 and the median paired difference, in microseconds.
func (r *run) serveProbes(d *daemon, tenants []serveapi.ServeTenant) (transport, intake float64, info serveapi.ServeOpenReply, err error) {
	const calls = 2000
	info, err = d.open(tenants, serveConns, false)
	if err != nil {
		return 0, 0, info, fmt.Errorf("ServeOpen: %w", err)
	}
	roundTrip := func(tenant string, seq int) (float64, *serveapi.ServeReply, error) {
		var rep serveapi.ServeReply
		t0 := time.Now()
		err := d.conns[0].Call("Planner.Serve", serveapi.ServeRequest{Tenant: tenant, Seq: seq}, &rep)
		return float64(time.Since(t0)) / 1e3, &rep, err
	}
	id := r.sp.begin("Planner.Serve probes", 0)
	var floor, diff []float64
	var bad int64
	for i := 0; i < calls; i++ {
		f, _, ferr := roundTrip("", i)
		s, rep, serr := roundTrip(tenants[0].Name, i)
		if ferr == nil {
			bad++ // an unknown tenant must be refused
		}
		if serr != nil || rep.Seq != i || !rep.Admitted {
			bad++
		}
		floor = append(floor, f)
		diff = append(diff, s-f)
	}
	r.sp.end(id)
	r.op(2*calls, bad)
	if _, err := d.close(); err != nil {
		return 0, 0, info, fmt.Errorf("ServeClose: %w", err)
	}
	return median(floor), median(diff), info, nil
}

// decideNS times core.ServeLane.Decide in-process on each tenant's lane
// parameters and returns the mean cost per decision.
func decideNS(info serveapi.ServeOpenReply) float64 {
	const n = 200000
	var total time.Duration
	var count int
	var d core.ServeDecision
	for _, t := range info.Tenants {
		lane, err := core.NewServeLane(sim.Time(t.IntervalNS), sim.Time(t.ServiceNS), sim.Time(t.BoundNS))
		if err != nil {
			continue
		}
		t0 := time.Now()
		for seq := 0; seq < n; seq++ {
			lane.Decide(seq, &d)
		}
		total += time.Since(t0)
		count += n
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
