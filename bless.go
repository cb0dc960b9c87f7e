// Package bless is a Go reproduction of BLESS, the bubble-less
// spatial-temporal GPU sharing system of "Improving GPU Sharing Performance
// through Adaptive Bubbleless Spatial-Temporal Sharing" (EuroSys '25).
//
// Multiple applications share one GPU, each provisioned a quota (a fraction
// of the GPU's SMs). BLESS schedules their kernels in fine-grained kernel
// squads, picks a per-squad execution configuration (spatial partitioning
// through MPS-style SM-restricted contexts, or unrestricted sharing), and
// squeezes the "bubbles" — idle GPU capacity that static quota isolation
// wastes — so that co-located applications see latencies at or below their
// isolated-quota baselines.
//
// The original system drives a physical Nvidia A100 through CUDA and MPS.
// This reproduction runs on a deterministic discrete-event GPU simulator
// (contexts with SM affinity, per-context device queues, a fair hardware
// scheduler, bandwidth contention, DMA transfers), so everything here
// executes in virtual time: simulations of seconds of GPU work complete in
// milliseconds of wall clock and are exactly reproducible.
//
// # Quick start
//
//	session, err := bless.NewSession(bless.SessionConfig{
//	    Clients: []bless.ClientConfig{
//	        {App: "vgg11", Quota: 1.0 / 3},
//	        {App: "resnet50", Quota: 2.0 / 3},
//	    },
//	})
//	...
//	session.SubmitAt(0, 0) // client 0, t=0
//	session.SubmitAt(1, 0)
//	result := session.Run()
//
// See the examples directory for complete programs, and internal/harness for
// the benchmark harness that regenerates every table and figure of the
// paper's evaluation.
package bless

import (
	"fmt"
	"sync"
	"time"

	"bless/internal/baselines"
	"bless/internal/core"
	"bless/internal/metrics"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// profileCache memoizes offline profiles per (app, SM count) process-wide.
// Profiling is deterministic and profiles are treated as immutable after
// construction, so sessions can share them; re-profiling per session
// dominated session-construction cost (and allocation count) otherwise.
var profileCache sync.Map // "app/SMs" -> *profiler.Profile

func profileFor(app *model.App, cfg sim.Config) (*profiler.Profile, error) {
	key := fmt.Sprintf("%s/%d", app.Name, cfg.SMs)
	if p, ok := profileCache.Load(key); ok {
		return p.(*profiler.Profile), nil
	}
	p, err := profiler.ProfileApp(app, profiler.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	actual, _ := profileCache.LoadOrStore(key, p)
	return actual.(*profiler.Profile), nil
}

// Models lists the built-in Table 1 applications: the five inference models
// ("vgg11", "resnet50", "resnet101", "nasnet", "bert") and their "-train"
// variants.
func Models() []string { return model.Names() }

// System names accepted by SessionConfig.System.
const (
	// SystemBLESS is the paper's contribution (default).
	SystemBLESS = "BLESS"
	// SystemStatic is fixed MPS quota isolation (the ISO baseline when run
	// with a single client).
	SystemStatic = "STATIC"
	// SystemTemporal is round-robin time slicing.
	SystemTemporal = "TEMPORAL"
	// SystemMIG is hardware slicing with isolated bandwidth.
	SystemMIG = "MIG"
	// SystemGSlice is adaptive MPS spatial sharing.
	SystemGSlice = "GSLICE"
	// SystemUnbound is hardware-scheduler sharing without restrictions.
	SystemUnbound = "UNBOUND"
	// SystemREEF is biased sharing with even spatial partitioning.
	SystemREEF = "REEF+"
	// SystemZico is coordinated training sharing (exactly two clients).
	SystemZico = "ZICO"
)

// ClientConfig declares one application deployed on the shared GPU.
type ClientConfig struct {
	// App is a built-in application name (see Models).
	App string
	// Quota is the provisioned GPU fraction in (0, 1]. Quotas across
	// clients must sum to at most 1.
	Quota float64
	// SLOTarget, if non-zero, replaces the isolated-quota latency as the
	// client's pace target (§6.5 of the paper).
	SLOTarget time.Duration
}

// GPUConfig describes the simulated device. The zero value selects the
// paper's A100 testbed (108 SMs, 40 GB).
type GPUConfig struct {
	// SMs is the streaming-multiprocessor count (default 108).
	SMs int
	// MemoryBytes is device memory (default 40 GiB).
	MemoryBytes int64
}

// Tuning adjusts BLESS scheduler parameters; zero values select the paper's
// defaults.
type Tuning struct {
	// MaxSquadKernels caps kernels per squad (default 50).
	MaxSquadKernels int
	// SplitRatio is the Semi-SP split c% in (0,1] (default 0.5).
	SplitRatio float64
	// DisableFairSelection ablates the multi-task scheduler.
	DisableFairSelection bool
	// DisableDeterminer ablates the execution-configuration determiner.
	DisableDeterminer bool
}

// SessionConfig assembles a sharing deployment.
type SessionConfig struct {
	// System selects the scheduler (default SystemBLESS).
	System string
	// Clients are the co-located applications.
	Clients []ClientConfig
	// GPU selects the device (zero = A100 defaults).
	GPU GPUConfig
	// Tuning adjusts BLESS parameters (ignored for baselines).
	Tuning Tuning
}

// RequestResult reports one completed request.
type RequestResult struct {
	// Client is the owning client's index.
	Client int
	// Seq numbers the client's requests from 0.
	Seq int
	// Arrival and Latency are in virtual time.
	Arrival, Latency time.Duration
}

// ClientStats summarizes one client's requests after Run.
type ClientStats struct {
	// App and Quota echo the configuration.
	App string
	// Quota is the provisioned fraction.
	Quota float64
	// Completed counts finished requests.
	Completed int
	// MeanLatency, P99Latency summarize the latency distribution.
	MeanLatency, P99Latency time.Duration
	// ISOLatency is the isolated-quota baseline T[n%] from the offline
	// profile — the paper's comparison target.
	ISOLatency time.Duration
}

// Result is a completed session's outcome.
type Result struct {
	// PerClient holds per-application statistics in deployment order.
	PerClient []ClientStats
	// Requests lists every completed request in completion order.
	Requests []RequestResult
	// Utilization is average SM utilization in [0,1] over the session.
	Utilization float64
	// Elapsed is the virtual time consumed.
	Elapsed time.Duration
}

// Session is a single-GPU sharing deployment on the simulated device. Create
// with NewSession, schedule work with SubmitAt (or SubmitClosedLoop), then
// call Run once. Sessions are not safe for concurrent use and cannot be
// reused after Run.
type Session struct {
	eng     *sim.Engine
	gpu     *sim.GPU
	env     *sharing.Env
	sched   sharing.Scheduler
	clients []*sharing.Client
	seqs    []int
	results []RequestResult
	arena   sharing.RequestArena
	ran     bool
}

// NewSession validates the configuration, profiles the applications offline
// (§4.2 — results are deterministic), and deploys the chosen scheduler.
func NewSession(cfg SessionConfig) (*Session, error) {
	if len(cfg.Clients) == 0 {
		return nil, fmt.Errorf("bless: no clients configured")
	}
	simCfg := sim.DefaultConfig()
	if cfg.GPU.SMs > 0 {
		simCfg.SMs = cfg.GPU.SMs
	}
	if cfg.GPU.MemoryBytes > 0 {
		simCfg.MemoryBytes = cfg.GPU.MemoryBytes
	}

	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, simCfg)
	clients := make([]*sharing.Client, len(cfg.Clients))
	for i, cc := range cfg.Clients {
		app, err := model.Get(cc.App)
		if err != nil {
			return nil, fmt.Errorf("bless: %w", err)
		}
		prof, err := profileFor(app, simCfg)
		if err != nil {
			return nil, fmt.Errorf("bless: profiling %s: %w", cc.App, err)
		}
		clients[i] = &sharing.Client{
			ID:        i,
			App:       app,
			Profile:   prof,
			Quota:     cc.Quota,
			SLOTarget: sim.Time(cc.SLOTarget),
		}
	}

	sched, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	env := &sharing.Env{Eng: eng, GPU: gpu, Clients: clients}
	s := &Session{eng: eng, gpu: gpu, env: env, sched: sched, clients: clients, seqs: make([]int, len(clients))}
	env.OnComplete = func(r *sharing.Request) {
		s.results = append(s.results, RequestResult{
			Client:  r.Client.ID,
			Seq:     r.Seq,
			Arrival: time.Duration(r.Arrival),
			Latency: time.Duration(r.Latency()),
		})
	}
	if err := sched.Deploy(env); err != nil {
		return nil, fmt.Errorf("bless: %w", err)
	}
	return s, nil
}

func newScheduler(cfg SessionConfig) (sharing.Scheduler, error) {
	switch cfg.System {
	case "", SystemBLESS:
		o := core.DefaultOptions()
		if cfg.Tuning.MaxSquadKernels > 0 {
			o.MaxSquadKernels = cfg.Tuning.MaxSquadKernels
		}
		if cfg.Tuning.SplitRatio > 0 {
			o.SplitRatio = cfg.Tuning.SplitRatio
		}
		o.DisableFairSelection = cfg.Tuning.DisableFairSelection
		o.DisableDeterminer = cfg.Tuning.DisableDeterminer
		return core.New(o), nil
	case SystemStatic:
		return baselines.NewStatic(), nil
	case SystemTemporal:
		return baselines.NewTemporal(), nil
	case SystemMIG:
		return baselines.NewMIG(), nil
	case SystemGSlice:
		return baselines.NewGSlice(), nil
	case SystemUnbound:
		return baselines.NewUnbound(), nil
	case SystemREEF:
		return baselines.NewREEFPlus(), nil
	case SystemZico:
		return baselines.NewZico(), nil
	default:
		return nil, fmt.Errorf("bless: unknown system %q", cfg.System)
	}
}

// SubmitAt schedules one request for the given client at virtual time at.
func (s *Session) SubmitAt(client int, at time.Duration) error {
	if client < 0 || client >= len(s.clients) {
		return fmt.Errorf("bless: client index %d out of range", client)
	}
	if s.ran {
		return fmt.Errorf("bless: session already ran")
	}
	c := s.clients[client]
	r := s.arena.New(c, s.seqs[client], sim.Time(at))
	s.seqs[client]++
	s.eng.Schedule(sim.Time(at), func() { s.sched.Submit(r) })
	return nil
}

// SubmitClosedLoop schedules a closed-loop request stream for the client:
// count requests, each submitted think after the previous one completes
// (count <= 0 keeps the loop running until the Run horizon).
func (s *Session) SubmitClosedLoop(client int, think time.Duration, count int, horizon time.Duration) error {
	if client < 0 || client >= len(s.clients) {
		return fmt.Errorf("bless: client index %d out of range", client)
	}
	if s.ran {
		return fmt.Errorf("bless: session already ran")
	}
	c := s.clients[client]
	prev := s.env.OnComplete
	s.env.OnComplete = func(r *sharing.Request) {
		prev(r)
		if r.Client != c {
			return
		}
		if count > 0 && s.seqs[client] >= count {
			return
		}
		at := r.Done + sim.Time(think)
		if horizon > 0 && at > sim.Time(horizon) {
			return
		}
		nr := s.arena.New(c, s.seqs[client], at)
		s.seqs[client]++
		s.eng.Schedule(at, func() { s.sched.Submit(nr) })
	}
	return s.SubmitAt(client, 0)
}

// Run executes the session until all submitted work drains and returns the
// aggregated result. Run may be called once.
func (s *Session) Run() *Result {
	s.ran = true
	s.eng.Run()
	res := &Result{
		Requests:    s.results,
		Utilization: s.gpu.Utilization(),
		Elapsed:     time.Duration(s.eng.Now()),
	}
	perClient := make([][]sim.Time, len(s.clients))
	for _, rr := range s.results {
		perClient[rr.Client] = append(perClient[rr.Client], sim.Time(rr.Latency))
	}
	for i, c := range s.clients {
		sum := metrics.Summarize(perClient[i])
		res.PerClient = append(res.PerClient, ClientStats{
			App:         c.App.Name,
			Quota:       c.Quota,
			Completed:   sum.Count,
			MeanLatency: time.Duration(sum.Mean),
			P99Latency:  time.Duration(sum.P99),
			ISOLatency:  time.Duration(c.Profile.IsoAtQuota(c.Quota)),
		})
	}
	return res
}

// ISOLatency returns the isolated-quota latency baseline T[n%] for an
// application at a quota on the default device — the paper's per-client
// comparison target — without building a session.
func ISOLatency(app string, quota float64) (time.Duration, error) {
	a, err := model.Get(app)
	if err != nil {
		return 0, err
	}
	prof, err := profileFor(a, sim.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return time.Duration(prof.IsoAtQuota(quota)), nil
}

// PlacementResult maps each application index in the request to a GPU index.
type PlacementResult map[int]int

// PlaceApps runs the §4.2.2 multi-GPU placement controller: assign each
// (application, quota) pair to one of gpuCount identical default-configured
// GPUs such that per-GPU quotas, memory footprints (including per-client MPS
// contexts) and the kernel-duration compatibility checks all hold.
func PlaceApps(apps []ClientConfig, gpuCount int) (PlacementResult, error) {
	if gpuCount < 1 {
		return nil, fmt.Errorf("bless: gpuCount must be >= 1")
	}
	cfg := sim.DefaultConfig()
	pas := make([]core.PlacementApp, len(apps))
	for i, a := range apps {
		m, err := model.Get(a.App)
		if err != nil {
			return nil, fmt.Errorf("bless: %w", err)
		}
		prof, err := profileFor(m, cfg)
		if err != nil {
			return nil, fmt.Errorf("bless: profiling %s: %w", a.App, err)
		}
		pas[i] = core.PlacementApp{Name: a.App, Profile: prof, Quota: a.Quota}
	}
	gpus := make([]core.PlacementGPU, gpuCount)
	for i := range gpus {
		gpus[i] = core.PlacementGPU{ID: fmt.Sprintf("gpu%d", i), Config: cfg}
	}
	pl, err := core.Place(pas, gpus)
	if err != nil {
		return nil, err
	}
	return PlacementResult(pl), nil
}

// SoloLatency returns an application's full-GPU solo latency (Table 1's
// duration column) on the default device.
func SoloLatency(app string) (time.Duration, error) {
	a, err := model.Get(app)
	if err != nil {
		return 0, err
	}
	prof, err := profileFor(a, sim.DefaultConfig())
	if err != nil {
		return 0, err
	}
	return time.Duration(prof.Iso[prof.Partitions-1]), nil
}
