// Command blessload is the closed-loop load generator for blessd's
// sustained-load serving surface. It opens a serving deployment
// (Planner.ServeOpen), drives per-tenant request streams over TCP with
// bounded pipelining (the closed loop: a fixed in-flight window per tenant,
// a new request the moment one completes), ramps the declared offered rate
// step by step until it finds the knee — the point where the deployment
// stops absorbing offered load bubble-free and starts shedding — and
// reports, per step: achieved decision throughput, client-side latency
// quantiles, shed rate, and the daemon's measured per-decision scheduler
// cost against the paper's §6.9 budget.
//
// Offered rates are virtual-time declarations (they set each tenant's lane
// interval, hence its admit/shed split), while achieved throughput is wall
// clock — how many admission decisions per second the front end sustains.
// By default (-rate 0) the ramp is capacity-relative: blessload probes the
// deployment's iso service time and starts at half the per-tenant
// bubble-free rate (guaranteed in-quota, zero shed), doubling until the
// shed knee.
//
// A short smoke ramp (the CI service-load job):
//
//	blessload -addr localhost:7600 -tenants 4 -steps 4 -duration 2s \
//	    -check -min-rps 10000
//
// Deterministic-intake verification (the serial-vs-pipelined digest gate):
//
//	blessload -addr localhost:7600 -verify -verify-requests 4000
//
// -verify drives the exact same per-tenant seq streams twice — at rates high
// enough to shed — first serially (one connection, one request in flight
// per tenant), then pipelined-concurrent (-conns connections, -inflight
// requests in flight per tenant, so seqs reach the daemon out of order) —
// and requires the two completion digests to match bit for bit.
//
// The last line of output is a JSON result record (machine-readable for
// CI); with -check the exit status enforces -min-rps, the §6.9 budget, a
// shed-rate ceiling on the first (in-quota) step, and zero serve-invariant
// violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/rpc"
	"sync"
	"time"

	"bless/internal/metrics"
	"bless/internal/serveapi"
	"bless/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7600", "blessd RPC address")
		tenants  = flag.Int("tenants", 4, "tenant count")
		app      = flag.String("app", "resnet50", "application per tenant")
		quota    = flag.Float64("quota", 0, "per-tenant quota (0 = spread 0.9/tenants)")
		gpus     = flag.Int("gpus", 1, "pool size for the placement pass")
		gpuSMs   = flag.Int("gpu-sms", 0, "per-device SM count (0 = 108)")
		boundMS  = flag.Float64("bound-ms", 0, "per-tenant shed bound in virtual ms (0 = 4x iso)")
		rate     = flag.Float64("rate", 0, "starting offered rate per tenant in virtual req/s (0 = half the probed bubble-free capacity)")
		ramp     = flag.Float64("ramp", 2, "rate multiplier per step")
		steps    = flag.Int("steps", 4, "max ramp steps")
		duration = flag.Duration("duration", 2*time.Second, "wall duration per step")
		inflight = flag.Int("inflight", 8, "pipelined in-flight requests per tenant")
		conns    = flag.Int("conns", 4, "TCP connections to spread tenants over")

		verify    = flag.Bool("verify", false, "run the serial-vs-pipelined digest check instead of a ramp")
		verifyReq = flag.Int("verify-requests", 4000, "requests per tenant in -verify mode")

		check    = flag.Bool("check", false, "exit nonzero when thresholds fail")
		minRPS   = flag.Float64("min-rps", 0, "aggregate achieved req/s floor (-check)")
		maxShed0 = flag.Float64("max-shed-first", 0.01, "shed-rate ceiling on the first, in-quota step (-check)")
		kneeShed = flag.Float64("knee-shed", 0.5, "shed fraction that marks the knee and stops the ramp")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("blessload: ")

	cfg := loadConfig{
		addr: *addr, tenants: *tenants, app: *app, quota: *quota,
		gpus: *gpus, gpuSMs: *gpuSMs, boundMS: *boundMS,
		inflight: *inflight, conns: *conns,
	}
	if cfg.quota <= 0 {
		cfg.quota = 0.9 * float64(cfg.gpus) / float64(cfg.tenants)
	}

	if *verify {
		if err := runVerify(cfg, *verifyReq); err != nil {
			log.Fatal(err)
		}
		return
	}

	result, err := runRamp(cfg, *rate, *ramp, *steps, *duration, *kneeShed)
	if err != nil {
		log.Fatal(err)
	}
	out, _ := json.Marshal(result)
	fmt.Println(string(out))
	if *check {
		if err := result.enforce(*minRPS, *maxShed0); err != nil {
			log.Fatal(err)
		}
	}
}

type loadConfig struct {
	addr            string
	tenants         int
	app             string
	quota           float64
	gpus, gpuSMs    int
	boundMS         float64
	inflight, conns int
}

func (c loadConfig) tenantSpecs(rate float64) []serveapi.ServeTenant {
	out := make([]serveapi.ServeTenant, c.tenants)
	for i := range out {
		out[i] = serveapi.ServeTenant{
			Name:    fmt.Sprintf("t%03d", i),
			App:     c.app,
			Quota:   c.quota,
			RateRPS: rate,
			BoundMS: c.boundMS,
		}
	}
	return out
}

func (c loadConfig) dial() ([]*rpc.Client, error) {
	n := c.conns
	if n <= 0 {
		n = 1
	}
	clients := make([]*rpc.Client, n)
	for i := range clients {
		cl, err := rpc.Dial("tcp", c.addr)
		if err != nil {
			for _, done := range clients[:i] {
				done.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", c.addr, err)
		}
		clients[i] = cl
	}
	return clients, nil
}

func closeAll(clients []*rpc.Client) {
	for _, cl := range clients {
		cl.Close()
	}
}

// stepResult is one ramp step's outcome.
type stepResult struct {
	TargetRPS     float64  `json:"offered_rps"`  // aggregate declared virtual rate
	AchievedRPS   float64  `json:"achieved_rps"` // completed decisions per wall second
	Completed     uint64   `json:"completed"`
	Admitted      uint64   `json:"admitted"`
	Shed          uint64   `json:"shed"`
	ShedRate      float64  `json:"shed_rate"`
	LatencyP50US  float64  `json:"latency_p50_us"` // client-side RPC round-trip
	LatencyP99US  float64  `json:"latency_p99_us"`
	DecisionNS    float64  `json:"decision_ns"` // server per-decision cost
	BudgetNS      int64    `json:"budget_ns"`   // §6.9 per-request budget
	WithinBudget  bool     `json:"within_budget"`
	BatchMeanSize float64  `json:"batch_mean_size"`
	Digest        string   `json:"digest"`
	Violations    []string `json:"violations,omitempty"`
}

// rampResult is the whole run's outcome; the knee is the last step driven.
type rampResult struct {
	Steps   []stepResult `json:"steps"`
	KneeRPS float64      `json:"knee_rps"` // last sustained aggregate rate
}

func (r rampResult) enforce(minRPS, maxShedFirst float64) error {
	if len(r.Steps) == 0 {
		return fmt.Errorf("check: no steps completed")
	}
	best := 0.0
	for _, s := range r.Steps {
		if s.AchievedRPS > best {
			best = s.AchievedRPS
		}
		if len(s.Violations) > 0 {
			return fmt.Errorf("check: serve invariant violations: %v", s.Violations)
		}
		if !s.WithinBudget {
			return fmt.Errorf("check: per-decision cost %.0fns exceeds §6.9 budget %dns at %.0f rps",
				s.DecisionNS, s.BudgetNS, s.TargetRPS)
		}
	}
	if first := r.Steps[0]; first.ShedRate > maxShedFirst {
		return fmt.Errorf("check: first (in-quota) step shed %.2f%% > %.2f%%",
			100*first.ShedRate, 100*maxShedFirst)
	}
	if best < minRPS {
		return fmt.Errorf("check: best achieved %.0f req/s < floor %.0f", best, minRPS)
	}
	return nil
}

// probeCapacity opens a throwaway 1-request-per-second deployment to read
// the derived lane parameters and returns the per-tenant bubble-free rate
// (1/iso service time) in virtual req/s.
func probeCapacity(cfg loadConfig) (float64, error) {
	clients, err := cfg.dial()
	if err != nil {
		return 0, err
	}
	defer closeAll(clients)
	ctl := clients[0]
	var opened serveapi.ServeOpenReply
	if err := ctl.Call("Planner.ServeOpen", serveapi.ServeOpenRequest{
		Tenants: cfg.tenantSpecs(1),
		GPUs:    cfg.gpus,
		GPUSMs:  cfg.gpuSMs,
	}, &opened); err != nil {
		return 0, fmt.Errorf("capacity probe: %w", err)
	}
	var closed serveapi.ServeCloseReply
	if err := ctl.Call("Planner.ServeClose", struct{}{}, &closed); err != nil {
		return 0, fmt.Errorf("capacity probe close: %w", err)
	}
	service := opened.Tenants[0].ServiceNS
	if service <= 0 {
		return 0, fmt.Errorf("capacity probe: degenerate service time %dns", service)
	}
	return 1e9 / float64(service), nil
}

// runRamp drives the rate ladder and stops at the shed knee. With rate 0 the
// ladder is capacity-relative: it starts at half the probed per-tenant
// bubble-free rate, so the first step is in-quota by construction.
func runRamp(cfg loadConfig, rate, ramp float64, steps int, dur time.Duration, kneeShed float64) (rampResult, error) {
	var result rampResult
	if rate <= 0 {
		capacity, err := probeCapacity(cfg)
		if err != nil {
			return result, err
		}
		rate = capacity / 2
		log.Printf("probed capacity: %.1f virtual req/s per tenant; starting at %.1f", capacity, rate)
	}
	for i := 0; i < steps; i++ {
		step, err := runStep(cfg, rate, dur, 0)
		if err != nil {
			return result, fmt.Errorf("step %d (rate %.0f): %w", i, rate, err)
		}
		result.Steps = append(result.Steps, step)
		log.Printf("step %d: offered %.0f virtual rps, achieved %.0f rps, shed %.2f%%, p99 %.0fus, decision %.0fns (budget %dns)",
			i, step.TargetRPS, step.AchievedRPS, 100*step.ShedRate, step.LatencyP99US, step.DecisionNS, step.BudgetNS)
		result.KneeRPS = step.AchievedRPS
		if step.ShedRate > kneeShed {
			log.Printf("knee at offered %.0f virtual rps (shed %.2f%%)", step.TargetRPS, 100*step.ShedRate)
			break
		}
		rate *= ramp
	}
	return result, nil
}

// runStep opens a deployment, drives every tenant closed-loop for dur (or
// exactly requests per tenant when requests > 0), closes it, and folds the
// daemon's accounting with the client-side latency digest.
func runStep(cfg loadConfig, rate float64, dur time.Duration, requests int) (stepResult, error) {
	var step stepResult
	clients, err := cfg.dial()
	if err != nil {
		return step, err
	}
	defer closeAll(clients)
	ctl := clients[0]

	var opened serveapi.ServeOpenReply
	open := serveapi.ServeOpenRequest{
		Tenants: cfg.tenantSpecs(rate),
		GPUs:    cfg.gpus,
		GPUSMs:  cfg.gpuSMs,
	}
	if err := ctl.Call("Planner.ServeOpen", open, &opened); err != nil {
		return step, err
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		lat       metrics.Digest
		completed uint64
		driveErr  error
	)
	deadline := time.Now().Add(dur)
	for i, t := range open.Tenants {
		wg.Add(1)
		go func(name string, cl *rpc.Client) {
			defer wg.Done()
			var local metrics.Digest
			n, err := driveTenant(cl, name, deadline, requests, cfg.inflight, &local)
			mu.Lock()
			completed += n
			lat.Merge(&local)
			if err != nil && driveErr == nil {
				driveErr = err
			}
			mu.Unlock()
		}(t.Name, clients[i%len(clients)])
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var closed serveapi.ServeCloseReply
	if err := ctl.Call("Planner.ServeClose", struct{}{}, &closed); err != nil {
		return step, err
	}
	if driveErr != nil {
		return step, driveErr
	}

	stats := closed.Stats
	step.TargetRPS = rate * float64(cfg.tenants)
	step.Completed = completed
	step.AchievedRPS = float64(completed) / elapsed.Seconds()
	step.Admitted = stats.Admitted
	step.Shed = stats.Shed
	if stats.Offered > 0 {
		step.ShedRate = float64(stats.Shed) / float64(stats.Offered)
	}
	sum := lat.Summary()
	step.LatencyP50US = float64(sum.P50) / 1e3
	step.LatencyP99US = float64(sum.P99) / 1e3
	step.DecisionNS = stats.DecisionMeanNS
	step.BudgetNS = stats.BudgetNS
	step.WithinBudget = stats.WithinBudget
	step.BatchMeanSize = stats.BatchMeanSize
	step.Digest = stats.Digest
	step.Violations = stats.Violations
	return step, nil
}

// driveTenant runs one tenant's closed loop: up to inflight pipelined calls,
// a new request issued the moment a slot frees, until the deadline (or
// exactly total requests when total > 0). The loop is deliberately unpaced —
// offered-rate semantics live in the lane's virtual clock, so wall-clock
// throughput here measures the front end, not the generator. The latency
// digest records wall round-trip times.
func driveTenant(cl *rpc.Client, name string, deadline time.Time, total, inflight int, lat *metrics.Digest) (uint64, error) {
	if inflight <= 0 {
		inflight = 1
	}
	type pending struct {
		call *rpc.Call
		sent time.Time
	}
	window := make([]pending, 0, inflight)
	reap := func(p pending) error {
		<-p.call.Done
		lat.Observe(sim.Time(time.Since(p.sent)))
		return p.call.Error
	}
	var n uint64
	for seq := 0; ; seq++ {
		if total > 0 {
			if seq >= total {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		if len(window) == inflight {
			if err := reap(window[0]); err != nil {
				return n, fmt.Errorf("tenant %s seq %d: %w", name, window[0].call.Reply.(*serveapi.ServeReply).Seq, err)
			}
			n++
			copy(window, window[1:])
			window = window[:len(window)-1]
		}
		reply := &serveapi.ServeReply{}
		call := cl.Go("Planner.Serve", serveapi.ServeRequest{Tenant: name, Seq: seq}, reply, make(chan *rpc.Call, 1))
		window = append(window, pending{call: call, sent: time.Now()})
	}
	for _, p := range window {
		if err := reap(p); err != nil {
			return n, fmt.Errorf("tenant %s drain: %w", name, err)
		}
		n++
	}
	return n, nil
}

// runVerify proves intake determinism: the same per-tenant seq streams —
// overloaded enough to shed — sent serially (one connection, one request in
// flight per tenant) and pipelined-concurrent (cfg's connections and
// in-flight window, so seqs arrive out of order) must produce bit-identical
// digests.
func runVerify(cfg loadConfig, requests int) error {
	// Overload deliberately: a rate far above the bubble-free quota rate
	// forces the shed path into the digest on both runs.
	rate := 1e6
	serial := cfg
	serial.conns, serial.inflight = 1, 1
	digests := make([]string, 2)
	sheds := make([]uint64, 2)
	for i, run := range []loadConfig{serial, cfg} {
		mode := fmt.Sprintf("%d conn(s), %d in flight", run.conns, run.inflight)
		step, err := runStep(run, rate, time.Minute, requests)
		if err != nil {
			return fmt.Errorf("verify (%s): %w", mode, err)
		}
		if step.Completed != uint64(requests*cfg.tenants) {
			return fmt.Errorf("verify (%s): completed %d of %d requests", mode, step.Completed, requests*cfg.tenants)
		}
		if len(step.Violations) > 0 {
			return fmt.Errorf("verify (%s): invariant violations: %v", mode, step.Violations)
		}
		digests[i] = step.Digest
		sheds[i] = step.Shed
		log.Printf("verify: %s: digest %s, shed %d/%d", mode, step.Digest, step.Shed, requests*cfg.tenants)
	}
	if digests[0] != digests[1] {
		fmt.Println(`{"verify":"FAIL"}`)
		return fmt.Errorf("verify: digest mismatch: serial %s != pipelined %s", digests[0], digests[1])
	}
	if sheds[0] == 0 {
		return fmt.Errorf("verify: workload never shed — raise -verify-requests to exercise the shed path")
	}
	fmt.Printf("{\"verify\":\"OK\",\"digest\":%q,\"shed\":%d}\n", digests[0], sheds[0])
	return nil
}
