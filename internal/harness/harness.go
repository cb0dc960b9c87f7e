// Package harness runs GPU-sharing experiments: it wires applications,
// offline profiles, workload patterns and a scheduler onto one simulated
// device, collects per-client latency distributions, and implements one
// experiment entry per table and figure of the paper's evaluation (§6). The
// cmd/blessbench binary and the repository-root benchmarks are thin wrappers
// over this package.
package harness

import (
	"fmt"
	"sync"

	"bless/internal/chaos"
	"bless/internal/invariant"
	"bless/internal/metrics"
	"bless/internal/model"
	"bless/internal/obs"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
	"bless/internal/trace"
)

// ClientSpec declares one deployed application.
type ClientSpec struct {
	// App is the catalog application name (see model.Names).
	App string
	// Quota is the provisioned GPU fraction in (0, 1].
	Quota float64
	// SLOTarget, when non-zero, replaces the ISO latency as the pace target.
	SLOTarget sim.Time
	// Pattern is the client's arrival process.
	Pattern trace.Pattern
}

// RunConfig describes one experiment run.
type RunConfig struct {
	// Scheduler is the system under test.
	Scheduler sharing.Scheduler
	// Clients are the deployed applications with their workloads.
	Clients []ClientSpec
	// Horizon bounds request generation; the run then drains in-flight work.
	Horizon sim.Time
	// GPU overrides the device configuration (zero value = DefaultConfig).
	GPU sim.Config
	// Tracer, if set, observes every kernel execution (timeline capture).
	Tracer sim.Tracer
	// Tracers are additional kernel observers; all attach alongside Tracer
	// (the device fans out to every subscriber).
	Tracers []sim.Tracer
	// Bus, if set, is offered to the scheduler before deployment: schedulers
	// implementing obs.Observable publish their decision events to it.
	Bus *obs.Bus
	// Registry, if set, receives streaming run metrics: per-client request
	// latency histograms (latency/<app>), completion counters and the
	// device utilization gauge. Observations stream during the run instead
	// of being post-processed from stored samples.
	Registry *obs.Registry
	// SLO, if set, tracks per-tenant latency-SLO attainment online: every
	// completion is judged against its client's SLOTarget as it retires.
	SLO *obs.SLOTracker
	// Invariants, if set, attaches an invariant.Checker to the run; the
	// report lands in Result.Invariants and, with FailOnViolation, enforced
	// breaches fail the run. When nil, the process-wide EnableInvariants
	// setting applies.
	Invariants *invariant.Options
	// Faults, if set, runs the experiment under a seeded fault and churn
	// plan (see FaultPlan); the degraded-mode activity lands in Result.Chaos.
	Faults *FaultPlan
}

// ClientResult aggregates one client's outcome.
type ClientResult struct {
	// App is the application name.
	App string
	// Quota is the provisioned fraction.
	Quota float64
	// Latencies are per-request latencies in completion order.
	Latencies []sim.Time
	// Summary distills Latencies.
	Summary metrics.Summary
	// ISO is the isolated-quota latency target T[n%] from the profile.
	ISO sim.Time
	// Submitted and Completed count requests; Failed counts requests the
	// scheduler aborted (retry budget or deadline) — they are excluded from
	// Latencies.
	Submitted, Completed, Failed int
	// Order lists successful completions' request sequence numbers in
	// completion order (see CompletionDigest).
	Order []int
}

// Result is one experiment run's outcome.
type Result struct {
	// System is the scheduler's name.
	System string
	// PerClient holds per-application results, in deployment order.
	PerClient []ClientResult
	// AvgLatency is the mean of per-application mean latencies (§6.2).
	AvgLatency sim.Time
	// Deviation is the average-latency-deviation metric (§6.2).
	Deviation sim.Time
	// Utilization is the device's average SM utilization over the run.
	Utilization float64
	// Elapsed is the virtual time at drain.
	Elapsed sim.Time
	// Invariants is the checker's report when invariant checking was on
	// (RunConfig.Invariants or EnableInvariants), nil otherwise.
	Invariants *invariant.Report
	// Chaos summarizes fault injection and churn when the run carried a
	// FaultPlan, nil otherwise.
	Chaos *ChaosReport
}

// profileCache memoizes offline profiles per (app, device-SMs, partitions);
// profiling is deterministic, so sharing across runs is sound. It makes the
// benchmark harness tractable: Table 2 sweeps profile the same five apps
// hundreds of times otherwise.
var profileCache sync.Map // key string -> *profiler.Profile

// ProfileFor returns the (cached) offline profile of a catalog application on
// the given device.
func ProfileFor(appName string, cfg sim.Config) (*profiler.Profile, error) {
	key := fmt.Sprintf("%s/%d/%d", appName, cfg.SMs, profiler.DefaultPartitions)
	if p, ok := profileCache.Load(key); ok {
		return p.(*profiler.Profile), nil
	}
	app, err := model.Get(appName)
	if err != nil {
		return nil, err
	}
	p, err := profiler.ProfileApp(app, profiler.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	profileCache.Store(key, p)
	return p, nil
}

// Run executes one experiment and returns its result. Deterministic for a
// given configuration.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("harness: no scheduler")
	}
	if len(cfg.Clients) == 0 {
		return nil, fmt.Errorf("harness: no clients")
	}
	gpuCfg := cfg.GPU
	if gpuCfg.SMs == 0 {
		gpuCfg = sim.DefaultConfig()
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = sim.Second
	}

	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, gpuCfg)
	gpu.AddTracer(cfg.Tracer) // nil-safe
	for _, tr := range cfg.Tracers {
		gpu.AddTracer(tr)
	}
	bus := cfg.Bus
	checker, checkerOpts := newRunChecker(&cfg, gpuCfg, horizon)
	if checker != nil {
		gpu.AddTracer(checker)
		if bus == nil {
			// The checker's digest covers decision events too; give the
			// scheduler a bus even when the caller wanted none.
			bus = obs.NewBus()
		}
		bus.Subscribe(checker)
	}
	if bus != nil {
		if o, ok := cfg.Scheduler.(obs.Observable); ok {
			o.Observe(bus)
		}
	}
	// The full client roster: the initial deployment plus any mid-run
	// joiners, at the next dense slot indices.
	nInitial := len(cfg.Clients)
	specs := append([]ClientSpec(nil), cfg.Clients...)
	if cfg.Faults != nil {
		for _, j := range cfg.Faults.Joins {
			specs = append(specs, j.Spec)
		}
	}
	clients := make([]*sharing.Client, len(specs))
	results := make([]ClientResult, len(specs))
	for i, spec := range specs {
		app, err := model.Get(spec.App)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		prof, err := ProfileFor(spec.App, gpuCfg)
		if err != nil {
			return nil, fmt.Errorf("harness: profiling %s: %w", spec.App, err)
		}
		clients[i] = &sharing.Client{
			ID:        i,
			App:       app,
			Profile:   prof,
			Quota:     spec.Quota,
			SLOTarget: spec.SLOTarget,
		}
		results[i] = ClientResult{
			App:   spec.App,
			Quota: spec.Quota,
			ISO:   prof.IsoAtQuota(spec.Quota),
		}
	}

	env := &sharing.Env{Eng: eng, GPU: gpu, Clients: clients[:nInitial:nInitial]}
	sched := cfg.Scheduler
	chs, err := setupChaos(cfg.Faults, sched, gpu, nInitial, len(specs))
	if err != nil {
		return nil, err
	}

	// Completion hook: record latency and keep closed loops spinning. Failed
	// (aborted) requests count separately — their latency is not a service
	// latency — but still respin a closed loop.
	seqs := make([]int, len(clients))
	arena := &sharing.RequestArena{}
	submit := func(id int, at sim.Time) {
		submitAt(env, sched, arena, clients[id], &seqs[id], at, &results[id], chs, checker)
	}
	env.OnComplete = func(r *sharing.Request) {
		id := r.Client.ID
		cr := &results[id]
		if checker != nil {
			checker.RequestCompleted(r.Done, id, r.Failed)
		}
		if cfg.SLO != nil {
			cfg.SLO.Observe(r.Client.App.Name, r.Client.SLOTarget, r.Latency(), r.Failed)
		}
		if r.Failed {
			cr.Failed++
			if cfg.Registry != nil {
				cfg.Registry.Counter("requests_failed_total").Inc()
			}
		} else {
			cr.Latencies = append(cr.Latencies, r.Latency())
			cr.Order = append(cr.Order, r.Seq)
			cr.Completed++
			if cfg.Registry != nil {
				cfg.Registry.Histogram("latency/" + r.Client.App.Name).Observe(r.Latency())
				cfg.Registry.Counter("requests_completed_total").Inc()
			}
		}
		p := &specs[id].Pattern
		if p.ClosedLoop() {
			if p.Limit > 0 && seqs[id] >= p.Limit {
				return
			}
			at := r.Done + p.Think
			if at > horizon {
				return
			}
			submit(id, at)
		}
	}

	if err := sched.Deploy(env); err != nil {
		return nil, fmt.Errorf("harness: deploy %s: %w", sched.Name(), err)
	}
	scheduleChurn(cfg.Faults, chs, eng, sched, clients, specs, checker, horizon, submit)

	// Seed arrivals for the initial deployment (joiners seed at their join
	// instant).
	for i := 0; i < nInitial; i++ {
		p := &specs[i].Pattern
		if p.ClosedLoop() {
			submit(i, 0)
			continue
		}
		for _, at := range p.Arrivals {
			if at > horizon {
				break
			}
			submit(i, at)
		}
	}

	// Run to the horizon, then drain in-flight work.
	eng.RunUntil(horizon)
	eng.Run()

	res := &Result{System: sched.Name(), Elapsed: eng.Now(), Utilization: gpu.Utilization()}
	res.Chaos = chs.report(sched)
	if cfg.Registry != nil {
		cfg.Registry.Gauge("sm_utilization").Set(res.Utilization)
		RecordChaos(cfg.Registry, res.Chaos)
	}
	perApp := make([][]sim.Time, len(results))
	sys := make([]sim.Time, len(results))
	iso := make([]sim.Time, len(results))
	for i := range results {
		results[i].Summary = metrics.Summarize(results[i].Latencies)
		perApp[i] = results[i].Latencies
		sys[i] = results[i].Summary.Mean
		iso[i] = results[i].ISO
	}
	res.PerClient = results
	res.AvgLatency = metrics.MeanOfMeans(perApp)
	dev, err := metrics.Deviation(sys, iso)
	if err != nil {
		return nil, err
	}
	res.Deviation = dev
	if checker != nil {
		rep := checker.Report()
		res.Invariants = rep
		if checkerOpts.FailOnViolation && rep.Err() != nil {
			return res, fmt.Errorf("harness: %s: %w", sched.Name(), rep.Err())
		}
	}
	return res, nil
}

// submitAt schedules one request submission. The accounting happens inside
// the scheduled closure, gated on the client still being present: requests of
// crashed or departed clients are dropped, not counted.
func submitAt(env *sharing.Env, s sharing.Scheduler, arena *sharing.RequestArena, c *sharing.Client, seq *int, at sim.Time, cr *ClientResult, chs *chaosRun, checker *invariant.Checker) {
	r := arena.New(c, *seq, at)
	*seq++
	env.Eng.Schedule(at, func() {
		if !chs.alive[c.ID] {
			return
		}
		cr.Submitted++
		if checker != nil {
			checker.RequestSubmitted(at, c.ID)
		}
		s.Submit(r)
	})
}

// scheduleChurn registers the fault plan's churn events with the engine:
// crashes and graceful leaves from the chaos plan, and admissions from the
// join schedule. Each event updates the scheduler, the liveness gates, and
// the invariant checker's churn accounting in one engine instant.
func scheduleChurn(fp *FaultPlan, chs *chaosRun, eng *sim.Engine, sched sharing.Scheduler,
	clients []*sharing.Client, specs []ClientSpec, checker *invariant.Checker,
	horizon sim.Time, submit func(id int, at sim.Time)) {
	if fp == nil || !fp.churns() {
		return
	}
	dyn := sched.(sharing.Dynamic) // validated in setupChaos
	refresh := func(at sim.Time) {
		if checker == nil {
			return
		}
		if qr, ok := sched.(sharing.QuotaReporter); ok {
			for _, cq := range qr.EffectiveQuotas() {
				checker.SetClientQuota(at, cq.ID, cq.Quota)
			}
		}
	}
	remove := func(ev chaos.ClientEvent, crashed bool) {
		eng.Schedule(ev.At, func() {
			if !chs.alive[ev.Client] {
				return
			}
			// Gate liveness first: crash teardown completes cancelled work
			// synchronously, and those completions must not respin the loop.
			chs.alive[ev.Client] = false
			if err := dyn.RemoveClient(ev.Client, crashed); err != nil {
				return
			}
			if crashed {
				chs.crashes++
			} else {
				chs.leaves++
			}
			if checker != nil {
				checker.SetClientActive(ev.At, ev.Client, false)
			}
			refresh(ev.At)
		})
	}
	for _, ev := range fp.Plan.Crashes {
		remove(ev, true)
	}
	for _, ev := range fp.Plan.Leaves {
		remove(ev, false)
	}
	for ji, j := range fp.Joins {
		id := len(specs) - len(fp.Joins) + ji
		at := j.At
		eng.Schedule(at, func() {
			if err := dyn.AddClient(clients[id]); err != nil {
				return // rejected admission (e.g. memory exhaustion)
			}
			chs.alive[id] = true
			chs.joins++
			if checker != nil {
				checker.SetClientActive(at, id, true)
			}
			refresh(at)
			p := &specs[id].Pattern
			if p.ClosedLoop() {
				submit(id, at)
				return
			}
			for _, off := range p.Arrivals {
				t := at + off
				if t > horizon {
					break
				}
				submit(id, t)
			}
		})
	}
}
