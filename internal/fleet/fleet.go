// Package fleet is the control plane over a pool of BLESS devices (§4.2.2:
// one BLESS runtime per device, a central controller placing applications).
// Tenants are placed jointly at deployment time (AdmitBatch) or admitted
// one by one against live per-device load, routed by a pluggable policy on
// top of the §4.2.2 placement check, migrated between devices without a
// service pause (new requests flow to the target while the source drains
// through the graceful leave path), rebalanced when load skews, and the
// pool itself grows and shrinks under an autoscaler.
//
// Heterogeneity is physical: each device carries its own sim.Config, and a
// device's SM count is its speed profile — compute kernels scale with SMs up
// to their saturation point, so a 60-SM device genuinely runs slower than a
// 108-SM one and the profiles used for placement are re-derived per device
// class.
//
// Each device is pinned to one of N engine shards advanced in lock-step
// windows by Run, with every cross-device interaction — routing flips,
// migration drains, crash recovery, control ticks — applied at window
// barriers in a canonical order. Cross-device rules are defined per device,
// never per shard, so the device→shard mapping is pure execution strategy:
// a run at any shard count (including one) is bit-identical to any other.
// Control decisions that can arrive in any order within one instant
// (migration triggers) are applied in a canonical order, so permuting the
// trigger order cannot change the outcome, and rebalance plans are pure
// functions of (seed, epoch, snapshot) — the discipline that keeps serial
// and parallel runs bit-identical.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"bless/internal/core"
	"bless/internal/invariant"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// profileCache memoizes offline profiles per (app, device config)
// process-wide for the default profile function. Profiling is deterministic
// and profiles are immutable after construction, so fleets — and repeated
// fleet constructions in tests and benchmarks — can share them;
// re-profiling every admitted tenant dominated admission cost otherwise.
// sim.Config is all scalars, so the composite key is comparable.
var profileCache sync.Map // profileKey -> *profiler.Profile

type profileKey struct {
	app string
	cfg sim.Config
}

func defaultProfile(app string, cfg sim.Config) (*model.App, *profiler.Profile, error) {
	a, err := model.Get(app)
	if err != nil {
		return nil, nil, err
	}
	key := profileKey{app: app, cfg: cfg}
	if p, ok := profileCache.Load(key); ok {
		return a, p.(*profiler.Profile), nil
	}
	p, err := profiler.ProfileApp(a, profiler.Options{Config: cfg})
	if err != nil {
		return nil, nil, err
	}
	actual, _ := profileCache.LoadOrStore(key, p)
	return a, actual.(*profiler.Profile), nil
}

// DeviceSpec describes one device in the pool. The SM count in Config is the
// device's speed profile: fewer SMs means compute kernels (below their
// saturation point) run proportionally slower.
type DeviceSpec struct {
	// Name labels the device ("gpu0", "a100-3", ...).
	Name string
	// Config is the device simulation config (zero = sim.DefaultConfig).
	Config sim.Config
}

// TenantSpec describes one application tenancy.
type TenantSpec struct {
	// Name uniquely identifies the tenant in the fleet ("t042").
	Name string
	// App is the catalog application the tenant runs.
	App string
	// Quota is the provisioned GPU fraction in (0, 1] on whichever device
	// hosts the tenant.
	Quota float64
	// SLOTarget, when non-zero, is the latency target used for pacing and
	// for the SLO-attainment routing policy.
	SLOTarget sim.Time
	// Think is the closed-loop think time between a completion and the
	// tenant's next submission.
	Think sim.Time
	// Requests bounds the tenant's submissions, explicit Submits included
	// (0 = keep submitting until the horizon).
	Requests int
}

// ProfileFunc resolves an application and its offline profile for a device
// configuration. The harness passes its process-wide cached resolver; the
// default profiles from scratch per call.
type ProfileFunc func(app string, cfg sim.Config) (*model.App, *profiler.Profile, error)

// Config assembles a fleet.
type Config struct {
	// Seed keys deterministic control-plane decisions (rebalance plans).
	Seed int64
	// Devices is the initial pool.
	Devices []DeviceSpec
	// Runtime tunes every device's BLESS runtime.
	Runtime core.Options
	// InjectorFor, when set, builds a per-device fault injector attached to
	// that device's runtime (overriding Runtime.Injector). Injectors are
	// per-device so each is touched only by its device's shard — sharing one
	// stateful injector across devices would make fault decisions depend on
	// the shard mapping.
	InjectorFor func(device int) core.FaultInjector
	// Policy selects the routing policy (default PolicyLeastLoaded).
	Policy Policy
	// Profile resolves per-device-class profiles (default: profile from
	// scratch, uncached).
	Profile ProfileFunc
	// Checker, when set, receives every fleet-level event for invariant
	// verification (no lost/duplicated requests, fleet-wide quota
	// conservation, device capacity).
	Checker *invariant.FleetChecker
	// Rebalance enables the periodic rebalancer (nil = disabled).
	Rebalance *RebalanceConfig
	// Autoscale enables the autoscaler (nil = disabled). Requires Rebalance
	// (the control loop ticks on its interval).
	Autoscale *AutoscaleConfig
	// Shards is the engine-shard count (0 or 1 = one shard; the
	// coordinator/exchange path runs identically at every count).
	Shards int
	// ShardOf optionally overrides the device→shard mapping (default:
	// device id modulo shard count). The mapping is execution strategy
	// only; permuting it cannot change a run's digests.
	ShardOf func(device int) int
	// ExchangeLatency is the cross-device handoff latency ε applied to
	// migration-drain completion notifications (default 100µs virtual). It
	// models the routing-layer hop between a draining source device and the
	// tenant's owner, and bounds every lock-step window so no shard can
	// outrun a message addressed to it.
	ExchangeLatency sim.Time
	// Observe attaches per-device observability (bus, collector, registry,
	// SLO tracker, device-stamped events) so FleetSnapshot,
	// FleetSLOTracker and WriteChromeTrace have data after the run.
	Observe bool
}

// Stats counts control-plane activity over the fleet's lifetime.
type Stats struct {
	Admitted            int
	AdmitRejected       int
	Routed              int64
	Completed           int64
	Failed              int64
	Migrations          int
	MigrationsCompleted int
	MigrationsRejected  int
	Rebalances          int
	ScaleUps            int
	ScaleDowns          int
	DeviceCrashes       int
	Resubmitted         int64
	Evicted             int
	LostToEviction      int
	Epochs              int64
}

// residency is one tenant's presence on one device: a device-local client
// plus the fleet-side accounting mirrored from the runtime's lifecycle.
type residency struct {
	t        *tenant
	dev      *device
	local    int // device-local client ID
	quota    float64
	mem      int64 // placement-time memory estimate
	prof     *profiler.Profile
	client   *sharing.Client
	draining bool // migration source: no new requests, backlog finishing
	pending  int  // requests routed here and not yet completed
}

// tenant is the fleet-side tenant state.
type tenant struct {
	spec    TenantSpec
	host    *residency   // routing target for new requests
	drains  []*residency // migration sources still finishing their backlog
	evicted bool         // no capacity after a crash; tenant is gone
	nextSeq int
	pending map[int]*residency // outstanding seq -> residency it ran on

	completed  int
	failed     int
	order      []int // completion order of seqs (the digest substrate)
	lats       []sim.Time
	latencySum sim.Time
	migrations int

	// timers are the pending closed-loop submit events. They live on the
	// owner shard's engine and move with the host.
	timers []*workTimer
}

// device is one pool member: a simulated GPU, its BLESS runtime, and the
// plain load counters the routing policies read.
type device struct {
	id       int
	spec     DeviceSpec
	cfg      sim.Config
	gpu      *sim.GPU
	env      *sharing.Env
	rt       *core.Runtime
	obs      *deviceObs // nil unless Config.Observe
	deployed bool       // core.Runtime deploys with its first resident set
	retired  bool       // cordoned by the autoscaler: no new placements
	dead     bool       // crashed

	shard  *shardState // the engine shard this device is pinned to
	outSeq uint64      // per-device exchange-record ordinal (canonical tie-break)
	chkSeq uint64      // per-device checker-event ordinal (canonical tie-break)

	nextLocal int
	residents map[int]*residency // local ID -> residency (live and draining)
	quota     float64            // subscribed quota, draining residents included
	mem       int64              // subscribed memory estimate
	inflight  int
	completed int64
	failed    int64
	sloOK     int64
	sloMiss   int64
}

// Fleet is a running control plane. Not safe for concurrent use; like the
// engine it drives, a fleet is single-threaded within one simulation.
type Fleet struct {
	ctrl    *sim.Engine // control-plane engine: ticks, migrations, crashes
	cfg     Config
	policy  Policy
	profile ProfileFunc
	checker *invariant.FleetChecker

	// Lock-step execution. The coordinator state — exchange inbox, drain
	// count, window bookkeeping — is only touched at barriers.
	set     *sim.ShardSet
	shards  []*shardState
	eps     sim.Time // exchange latency ε, the windows' lookahead bound
	horizon sim.Time
	began   bool       // Begin ran: timers armed, control ticks scheduled
	window  sim.Time   // start of the current lock-step window (last barrier)
	inbox   []drainRec // pending cross-shard deliveries, (deliver, dev, seq) order
	chkBuf  []chkRec   // scratch for the per-window checker-event sort

	drainCount int // live migration-drain residencies fleet-wide

	devices []*device
	tenants map[string]*tenant
	names   []string // admission order, for deterministic iteration

	moves      []move // migration triggers collected this instant
	movesArmed bool

	epoch          int64
	shortfallTicks int
	churned        bool // crash since last tick: rebalance regardless

	stats Stats
}

// New assembles the pool across cfg.Shards engine shards (0 or 1 = a
// single shard — same coordinator path, zero parallelism). Admit tenants,
// optionally Submit their first requests or schedule migrations and
// crashes, then drive the run with Run (or Begin, RunTo and Finish).
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: need at least one device")
	}
	if cfg.Autoscale != nil && cfg.Rebalance == nil {
		return nil, fmt.Errorf("fleet: Autoscale requires Rebalance (the control loop ticks on its interval)")
	}
	f := &Fleet{
		cfg:     cfg,
		policy:  cfg.Policy,
		profile: cfg.Profile,
		checker: cfg.Checker,
		tenants: make(map[string]*tenant),
		ctrl:    sim.NewEngine(),
		eps:     cfg.ExchangeLatency,
	}
	if f.policy == "" {
		f.policy = PolicyLeastLoaded
	}
	if _, err := policyRank(f.policy); err != nil {
		return nil, err
	}
	if f.profile == nil {
		f.profile = defaultProfile
	}
	if f.eps <= 0 {
		f.eps = DefaultExchangeLatency
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	f.set = sim.NewShardSet(n)
	f.shards = make([]*shardState, n)
	for i := range f.shards {
		f.shards[i] = &shardState{id: i, eng: f.set.Shard(i)}
	}
	for _, spec := range cfg.Devices {
		if _, err := f.AddDevice(spec); err != nil {
			f.set.Close()
			return nil, err
		}
	}
	return f, nil
}

// now is the control-plane clock. Only valid outside shard windows.
func (f *Fleet) now() sim.Time { return f.ctrl.Now() }

// shardIndex maps a device to its engine shard.
func (f *Fleet) shardIndex(dev int) int {
	n := len(f.shards)
	if n == 1 {
		return 0
	}
	if f.cfg.ShardOf != nil {
		return ((f.cfg.ShardOf(dev) % n) + n) % n
	}
	return dev % n
}

// AddDevice grows the pool by one device and returns its index. The device's
// runtime deploys lazily with its first resident set.
func (f *Fleet) AddDevice(spec DeviceSpec) (int, error) {
	cfg := spec.Config
	if cfg.SMs == 0 {
		cfg = sim.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return 0, fmt.Errorf("fleet: device %q: %w", spec.Name, err)
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("gpu%d", len(f.devices))
	}
	sh := f.shards[f.shardIndex(len(f.devices))]
	opts := f.cfg.Runtime
	if f.cfg.InjectorFor != nil {
		opts.Injector = f.cfg.InjectorFor(len(f.devices))
	}
	d := &device{
		id:        len(f.devices),
		spec:      spec,
		cfg:       cfg,
		gpu:       sim.NewGPU(sh.eng, cfg),
		rt:        core.New(opts),
		shard:     sh,
		residents: make(map[int]*residency),
	}
	d.env = &sharing.Env{Eng: sh.eng, GPU: d.gpu}
	if f.cfg.Observe {
		d.observe()
	}
	dev := d
	d.env.OnComplete = func(r *sharing.Request) { f.completed(dev, r) }
	f.devices = append(f.devices, d)
	if f.checker != nil {
		f.checker.DeviceAdded(f.now(), d.id, cfg.SMs)
	}
	return d.id, nil
}

// Admit places a new tenant on the device the routing policy picks and
// starts it. Admission fails when no live device passes the §4.2.2 placement
// check for the tenant.
func (f *Fleet) Admit(spec TenantSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("fleet: tenant needs a name")
	}
	if _, ok := f.tenants[spec.Name]; ok {
		return fmt.Errorf("fleet: tenant %q already admitted", spec.Name)
	}
	if spec.Quota <= 0 || spec.Quota > 1 {
		return fmt.Errorf("fleet: tenant %q quota %g outside (0,1]", spec.Name, spec.Quota)
	}
	t := &tenant{spec: spec, pending: make(map[int]*residency)}
	dev, err := f.route(t, -1)
	if err != nil {
		f.stats.AdmitRejected++
		return fmt.Errorf("fleet: admitting %q: %w", spec.Name, err)
	}
	res, err := f.place(t, dev)
	if err != nil {
		f.stats.AdmitRejected++
		return fmt.Errorf("fleet: admitting %q: %w", spec.Name, err)
	}
	t.host = res
	f.tenants[spec.Name] = t
	f.names = append(f.names, spec.Name)
	f.stats.Admitted++
	return nil
}

// AdmitBatch places a tenant set jointly on a pool with no tenants yet —
// the §4.2.2 central controller. The batch is validated up front (names,
// quotas, duplicates within the batch), then core.Place assigns every
// tenant at once (largest memory first, backtracking across devices), so a
// set that per-tenant routing would strand still lands. Each device then
// deploys its whole resident set in one runtime Deploy. Placement runs on
// profiles for the first live device's class. A batch that fails
// validation or placement admits nothing.
func (f *Fleet) AdmitBatch(specs []TenantSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.Name == "" {
			return fmt.Errorf("fleet: batch tenant needs a name")
		}
		if seen[spec.Name] {
			return fmt.Errorf("fleet: batch admits tenant %q twice", spec.Name)
		}
		seen[spec.Name] = true
		if _, ok := f.tenants[spec.Name]; ok {
			return fmt.Errorf("fleet: tenant %q already admitted", spec.Name)
		}
		if spec.Quota <= 0 || spec.Quota > 1 {
			return fmt.Errorf("fleet: tenant %q quota %g outside (0,1]", spec.Name, spec.Quota)
		}
	}
	if len(f.tenants) > 0 {
		return fmt.Errorf("fleet: batch admission needs a pool with no tenants (have %d)", len(f.tenants))
	}
	var live []*device
	for _, d := range f.devices {
		if !d.retired {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("fleet: batch admission: no live devices")
	}
	apps := make([]core.PlacementApp, len(specs))
	for i, spec := range specs {
		_, prof, err := f.profile(spec.App, live[0].cfg)
		if err != nil {
			return fmt.Errorf("fleet: tenant %q: %w", spec.Name, err)
		}
		apps[i] = core.PlacementApp{Name: spec.Name, Profile: prof, Quota: spec.Quota}
	}
	gpus := make([]core.PlacementGPU, len(live))
	for i, d := range live {
		gpus[i] = core.PlacementGPU{ID: d.spec.Name, Config: d.cfg}
	}
	placement, err := core.Place(apps, gpus)
	if err != nil {
		f.stats.AdmitRejected += len(specs)
		return fmt.Errorf("fleet: batch admission: %w", err)
	}
	ts := make([]*tenant, len(specs))
	for i, spec := range specs {
		ts[i] = &tenant{spec: spec, pending: make(map[int]*residency)}
	}
	// A device that refuses its deployment (Place's checks rule that out)
	// stops the batch; tenants on devices deployed before it stay admitted.
	for gi, dev := range live {
		var members []*tenant
		for i, t := range ts {
			if placement[i] == gi {
				members = append(members, t)
			}
		}
		if len(members) == 0 {
			continue
		}
		rs, derr := f.deploy(dev, members)
		if derr != nil {
			err = fmt.Errorf("fleet: batch admission: %w", derr)
			break
		}
		for i, t := range members {
			t.host = rs[i]
		}
	}
	for _, t := range ts {
		if t.host == nil {
			f.stats.AdmitRejected++
			continue
		}
		f.tenants[t.spec.Name] = t
		f.names = append(f.names, t.spec.Name)
		f.stats.Admitted++
	}
	return err
}

// place creates a residency for the tenant on the device and returns it:
// the device deploys with the tenant as its first resident, or the tenant
// joins the running deployment (sharing.Dynamic).
func (f *Fleet) place(t *tenant, dev *device) (*residency, error) {
	if !dev.deployed {
		rs, err := f.deploy(dev, []*tenant{t})
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	res, err := f.residency(t, dev, dev.nextLocal)
	if err != nil {
		return nil, err
	}
	if err := dev.rt.AddClient(res.client); err != nil {
		return nil, fmt.Errorf("device %s: %w", dev.spec.Name, err)
	}
	f.settle(res)
	return res, nil
}

// deploy deploys an undeployed device with its whole resident set in one
// runtime Deploy, returning the residencies in ts order.
func (f *Fleet) deploy(dev *device, ts []*tenant) ([]*residency, error) {
	rs := make([]*residency, len(ts))
	clients := make([]*sharing.Client, len(ts))
	for i, t := range ts {
		res, err := f.residency(t, dev, dev.nextLocal+i)
		if err != nil {
			return nil, err
		}
		rs[i], clients[i] = res, res.client
	}
	dev.env.Clients = clients
	if err := dev.rt.Deploy(dev.env); err != nil {
		dev.env.Clients = nil
		return nil, fmt.Errorf("device %s: %w", dev.spec.Name, err)
	}
	dev.deployed = true
	for _, res := range rs {
		f.settle(res)
	}
	return rs, nil
}

// residency builds the tenant's residency on the device under local ID
// local, resolving the device-class profile.
func (f *Fleet) residency(t *tenant, dev *device, local int) (*residency, error) {
	app, prof, err := f.profile(t.spec.App, dev.cfg)
	if err != nil {
		return nil, err
	}
	lim := profiler.DefaultAdmissionLimits()
	return &residency{
		t:     t,
		dev:   dev,
		local: local,
		quota: t.spec.Quota,
		mem:   prof.MemoryBytes + int64(lim.ContextsPerClient)*dev.cfg.ContextMemBytes,
		prof:  prof,
		client: &sharing.Client{
			ID:        local,
			App:       app,
			Profile:   prof,
			Quota:     t.spec.Quota,
			SLOTarget: t.spec.SLOTarget,
		},
	}, nil
}

// settle records a residency the runtime has accepted on its device.
func (f *Fleet) settle(res *residency) {
	dev := res.dev
	dev.nextLocal++
	dev.residents[res.local] = res
	dev.quota += res.quota
	dev.mem += res.mem
	if dev.obs != nil {
		dev.obs.target(res.client)
	}
	if f.checker != nil {
		f.checker.TenantAdmitted(f.now(), res.t.spec.Name, dev.id, res.quota)
	}
}

// Submit routes the tenant's next request to its current host device at the
// current virtual time and returns the request handle. Call it before Begin
// (t=0 requests, issued in call order) or at a RunTo pause, never from
// inside a window.
func (f *Fleet) Submit(name string) (*sharing.Request, error) {
	t, ok := f.tenants[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown tenant %q", name)
	}
	return f.submit(t)
}

// submit issues the tenant's next request on its owner shard. It is only
// called from the owner shard (timers) or outside windows.
func (f *Fleet) submit(t *tenant) (*sharing.Request, error) {
	if t.evicted {
		return nil, fmt.Errorf("fleet: tenant %q was evicted", t.spec.Name)
	}
	seq := t.nextSeq
	t.nextSeq++
	res := t.host
	sh := res.dev.shard
	now := sh.eng.Now()
	r := sh.arena.New(res.client, seq, now)
	res.dev.rt.Submit(r)
	t.pending[seq] = res
	res.pending++
	res.dev.inflight++
	sh.routed++
	f.noteRouted(sh, now, res.dev, t, seq)
	return r, nil
}

// completed is every device's env.OnComplete: it settles the device-local
// request accounting and the SLO counters. Completions of live (owner)
// residencies settle the tenant-side accounting in place; completions of
// draining migration sources instead emit an exchange record delivered to
// the owner ε later at a barrier — the tenant may be owned by another
// shard, and the ε rule applies at every shard count so the shard mapping
// stays execution-only.
func (f *Fleet) completed(dev *device, r *sharing.Request) {
	res, ok := dev.residents[r.Client.ID]
	if !ok {
		return // completion for an already-released residency: impossible by construction
	}
	t := res.t
	lat := r.Latency()
	res.pending--
	dev.inflight--
	if r.Failed {
		dev.failed++
	} else {
		dev.completed++
	}
	if t.spec.SLOTarget > 0 {
		if !r.Failed && lat <= t.spec.SLOTarget {
			dev.sloOK++
		} else {
			dev.sloMiss++
		}
	}
	sh := dev.shard
	if res.draining {
		drained := res.pending == 0
		if drained {
			f.finishDrainLocal(res, r.Done)
		}
		sh.outbox = append(sh.outbox, drainRec{
			deliver: r.Done + f.eps, at: r.Done,
			dev: dev.id, seq: dev.outSeq,
			res: res, rseq: r.Seq, failed: r.Failed, lat: lat,
			drained: drained,
		})
		dev.outSeq++
		return
	}
	delete(t.pending, r.Seq)
	if r.Failed {
		t.failed++
		sh.failed++
	} else {
		t.completed++
		sh.done++
		t.latencySum += lat
		t.lats = append(t.lats, lat)
	}
	t.order = append(t.order, r.Seq)
	f.noteCompleted(sh, r.Done, dev, t, r.Seq, r.Failed)
	f.scheduleNext(t, r.Done, 0)
}

// finishDrain retires a migration-source residency whose backlog finished
// before the migration applied: the runtime has released the client
// (graceful-leave semantics), so the fleet-side subscription drops with it.
// Barriers only; window-time drain finishes go through finishDrainLocal.
func (f *Fleet) finishDrain(res *residency) {
	dev, t := res.dev, res.t
	delete(dev.residents, res.local)
	dev.quota -= res.quota
	dev.mem -= res.mem
	f.removeDrain(t, res)
	f.stats.MigrationsCompleted++
	if f.checker != nil {
		f.checker.TenantReleased(f.now(), t.spec.Name, dev.id)
	}
}

// removeDrain unlinks a drain residency from its tenant (no-op when the
// residency is not in the drain list) and settles the fleet-wide count.
func (f *Fleet) removeDrain(t *tenant, res *residency) {
	for i, d := range t.drains {
		if d == res {
			t.drains = append(t.drains[:i], t.drains[i+1:]...)
			f.drainCount--
			return
		}
	}
}

// Stats returns the control-plane counters, shard-local tallies merged.
func (f *Fleet) Stats() Stats {
	s := f.stats
	for _, sh := range f.shards {
		s.Routed += sh.routed
		s.Completed += sh.done
		s.Failed += sh.failed
		s.MigrationsCompleted += sh.drained
	}
	return s
}

// Devices returns the pool size, retired and crashed devices included.
func (f *Fleet) Devices() int { return len(f.devices) }

// Elapsed reports the fleet's virtual time: the furthest device or control
// clock.
func (f *Fleet) Elapsed() sim.Time {
	at := f.set.Now()
	if c := f.ctrl.Now(); c > at {
		at = c
	}
	return at
}

// TenantResult is one tenant's final outcome.
type TenantResult struct {
	Name       string
	App        string
	Quota      float64
	Device     int // final host (-1 if evicted)
	Completed  int
	Failed     int
	MeanLat    sim.Time
	Latencies  []sim.Time // successful-request latencies, completion order
	Migrations int
	Evicted    bool
}

// Results returns every tenant's outcome in admission order.
func (f *Fleet) Results() []TenantResult {
	out := make([]TenantResult, 0, len(f.names))
	for _, name := range f.names {
		t := f.tenants[name]
		tr := TenantResult{
			Name:       name,
			App:        t.spec.App,
			Quota:      t.spec.Quota,
			Device:     -1,
			Completed:  t.completed,
			Failed:     t.failed,
			Latencies:  t.lats,
			Migrations: t.migrations,
			Evicted:    t.evicted,
		}
		if !t.evicted && t.host != nil {
			tr.Device = t.host.dev.id
		}
		if t.completed > 0 {
			tr.MeanLat = t.latencySum / sim.Time(t.completed)
		}
		out = append(out, tr)
	}
	return out
}

// CompletionDigest folds every tenant's outcome — app, completion order,
// failure count, eviction — into one timing-free FNV-1a digest. Two runs of
// the same scenario must match bit-for-bit regardless of shard count
// (serial vs parallel workers) or of the order same-instant migration
// triggers arrived in.
func (f *Fleet) CompletionDigest() uint64 {
	h := fnv.New64a()
	names := append([]string(nil), f.names...)
	sort.Strings(names)
	var buf [8]byte
	wInt := func(v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, name := range names {
		t := f.tenants[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(t.spec.App))
		h.Write([]byte{0})
		wInt(t.completed)
		wInt(t.failed)
		wInt(t.migrations)
		if t.evicted {
			wInt(1)
		} else {
			wInt(0)
		}
		wInt(len(t.order))
		for _, seq := range t.order {
			wInt(seq)
		}
	}
	return h.Sum64()
}
