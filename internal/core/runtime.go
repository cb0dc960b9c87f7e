package core

import (
	"errors"
	"fmt"
	"sort"

	"bless/internal/obs"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// Options configures the BLESS runtime.
type Options struct {
	// MaxSquadKernels caps kernels per squad (default 50, §6.7).
	MaxSquadKernels int
	// SplitRatio is the Semi-SP split c%: the leading fraction of each
	// entry's kernels that run spatially restricted before the manager
	// removes the restriction for the tail (default 0.5, §6.7).
	SplitRatio float64
	// Partitions is the configuration-space granularity N (default: the
	// profiles' partition count, 18).
	Partitions int
	// SchedPerKernel is the host scheduling cost per kernel: multi-task
	// scheduling 3.7us + configuration search 2us + squad generation 1us =
	// 6.7us (§6.9). Overlapped with device execution.
	SchedPerKernel sim.Time
	// DisableFairSelection ablates the multi-task scheduler (Fig 20):
	// round-robin kernel selection instead of progress-based.
	DisableFairSelection bool
	// DisableDeterminer ablates the execution configuration determiner
	// (Fig 20): every multi-entry squad runs quota-proportionally
	// partitioned without searching.
	DisableDeterminer bool
	// DisableSemiSP disables the mid-squad context switch, keeping strict
	// spatial partitioning for whole squads (the SP row of Fig 17).
	DisableSemiSP bool
	// QuotaGuard forwards to DetermineOptions.QuotaGuard: constrain
	// configuration search to quota-pace-feasible splits.
	QuotaGuard bool
	// NoAdaptiveSizing forwards to GenerateOptions.NoAdaptiveSizing: squads
	// are bounded by the raw kernel cap only, without the pace-margin
	// duration cap (used by the Fig 19a sweep).
	NoAdaptiveSizing bool
	// NoFlush forwards to GenerateOptions.NoFlush: disable the endgame
	// flush (design ablation).
	NoFlush bool
	// TraceSquad, if set, observes every scheduled squad with its chosen
	// execution configuration — the hook behind the fine-grained timeline
	// analysis (Fig 18) and debugging. Not serialized: functions cannot
	// cross a process boundary.
	TraceSquad func(at sim.Time, squad *Squad, cfg ExecConfig) `json:"-"`

	// Injector, when non-nil, supplies fault decisions (see FaultInjector):
	// kernel executions may fault and be retried with capped exponential
	// backoff, restricted-context establishment may fail, and launches may
	// be deferred past transient device stalls. *chaos.Injector satisfies
	// it; nil keeps the hot path byte-identical to the fault-free build.
	// Not serialized (see TraceSquad).
	Injector FaultInjector `json:"-"`
	// RetryBackoff is the base delay before relaunching a faulted kernel
	// (default 20us), doubling per consecutive attempt up to
	// RetryBackoffCap (default 1ms).
	RetryBackoff    sim.Time
	RetryBackoffCap sim.Time
	// MaxRetries caps relaunch attempts per kernel (default 8); exhausting
	// it aborts the owning request, which completes marked Failed.
	MaxRetries int
	// RequestDeadline, when positive, bounds a request's time in service:
	// requests still unfinished past it are aborted at the next squad
	// boundary (the only deterministic preemption point — kernels are
	// un-preemptable) and their remaining kernels skipped.
	RequestDeadline sim.Time
}

// DefaultOptions returns the paper's testbed settings.
func DefaultOptions() Options {
	return Options{
		MaxSquadKernels: DefaultMaxSquadKernels,
		SplitRatio:      0.5,
		SchedPerKernel:  6700, // 6.7us
	}
}

// clientState is the runtime's per-client bookkeeping.
type clientState struct {
	c      *sharing.Client
	queue  []*sharing.Request // FIFO backlog, excluding the active request
	active *activeRequest

	defaultCtx *sim.Context
	defaultQ   *sim.Queue
	restricted map[int]*restrictedSlot // keyed by SM grant

	// lastCtxSMs tracks which context the client's launches last targeted
	// (0 = the unrestricted default); redirecting launches to a different
	// context opens a ~50us vacuum for this client's kernels (§6.9). The
	// vacuum begins once launches to the old context stop, so it is counted
	// from lastLaunchAt — by the time the next squad issues, it has usually
	// elapsed behind ongoing execution.
	lastCtxSMs int
	// lastLaunchAt is the host timestamp of the client's most recent kernel
	// launch.
	lastLaunchAt sim.Time
	// lastArrival is when the client's most recent kernel reaches its
	// device queue (>= lastLaunchAt when a redirection vacuum applies);
	// graph followers must not arrive before it.
	lastArrival sim.Time

	// ovh accumulates this client's share of the host-side overheads
	// (§6.9), attributed at the decision points that incur them.
	ovh ClientOverhead

	// prov is the provisioned (deploy-time) quota; c.Quota holds the
	// effective quota, re-normalized over live clients after churn.
	prov float64
	// leaving marks a graceful departure: no new work is admitted and the
	// client's resources release once its backlog drains.
	leaving bool
	// dead marks an abrupt crash: queued kernels were cancelled and the
	// client no longer participates in squads.
	dead bool
	// released records that the client's memory was given back.
	released bool
}

// live reports whether the client still participates in scheduling (a
// leaving client does, until its backlog drains).
func (cs *clientState) live() bool { return !cs.dead && !cs.released }

type restrictedSlot struct {
	ctx *sim.Context
	q   *sim.Queue
}

// Runtime is the assembled BLESS system: it implements sharing.Scheduler by
// composing the multi-task scheduler, the execution configuration determiner
// and the concurrent kernel manager on top of the simulated device.
type Runtime struct {
	opts Options
	env  *sharing.Env
	host *sim.Host

	clients []*clientState

	squadRunning  bool
	kickPending   bool
	squadPendings int
	prevSquadDur  sim.Time
	squadStarted  sim.Time

	// bus receives decision events when a subscriber is attached (obs
	// package); nil-safe, zero cost when unobserved.
	bus *obs.Bus
	// current squad decision context, for SquadDone and context-switch
	// events and for splitting the completion sync among the members.
	curSquad     int64
	curMode      string
	curPredicted sim.Time
	curMembers   []int // client IDs of the running squad's entries

	// detCache memoizes execution-configuration decisions by squad
	// signature (see determineCache); per-Runtime, so per-run.
	detCache determineCache

	// launchSquad scratch, reused across squads (single-threaded engine;
	// nothing retains these past one launchSquad call).
	planScratch []plannedLaunch
	gateScratch []*launchGate
	planSort    planSorter
	// kdFree pools kernel-completion continuations: one is live per launched
	// kernel, returned when it fires (see kernelDone).
	kdFree []*kernelDone
	// tlFree pools Semi-SP tail-launch continuations the same way: one is
	// live per gated tail kernel, returned when its gate opens and the
	// launch issues (see tailLaunch). A fresh closure per tail kernel was a
	// top remaining allocation site on the steady-state path.
	tlFree []*tailLaunch
	// gateFree pools launch gates; gates used by a squad are recycled at the
	// next launchSquad (the previous squad has fully drained by then), with
	// their waiter slices kept for capacity reuse.
	gateFree []*launchGate
	gateUsed []*launchGate
	// genScratch holds squad generation's selection state (squad.go).
	genScratch genScratch
	// startSquad scratch: the per-round active/client/quota views handed to
	// squad generation and the determiner, rebuilt every round but never
	// retained past it.
	activesScratch []*activeRequest
	clientsScratch []*sharing.Client
	quotasScratch  []float64
	// kickFn is the scheduling-round closure, bound once: kick runs per
	// request arrival and completion, so a fresh closure per kick shows up
	// at sustained load.
	kickFn func()

	// stats
	squadsExecuted   int64
	spatialSquads    int64
	kernelsScheduled int64
	configsEvaluated int64

	// faults counts degraded-mode activity (see faults.go).
	faults FaultStats
}

// New creates a BLESS runtime with the given options.
func New(opts Options) *Runtime {
	if opts.MaxSquadKernels <= 0 {
		opts.MaxSquadKernels = DefaultMaxSquadKernels
	}
	if opts.SplitRatio <= 0 || opts.SplitRatio > 1 {
		opts.SplitRatio = 0.5
	}
	if opts.SchedPerKernel <= 0 {
		opts.SchedPerKernel = 6700
	}
	return &Runtime{opts: opts}
}

// Name implements sharing.Scheduler.
func (rt *Runtime) Name() string { return "BLESS" }

// Observe implements obs.Observable: the runtime publishes its scheduling
// decisions (squad formation, configuration choice, context switches,
// pace-guard trips, endgame flushes, squad completion) to the bus. Attach
// before Deploy/first Submit; a nil or subscriber-less bus costs nothing.
func (rt *Runtime) Observe(bus *obs.Bus) { rt.bus = bus }

// Deploy implements sharing.Scheduler: it validates the deployment, reserves
// application memory and establishes each client's default (unrestricted)
// GPU context. Restricted contexts are pre-established lazily per distinct
// SM grant the determiner selects, each charged the MPS context footprint.
func (rt *Runtime) Deploy(env *sharing.Env) error {
	if err := sharing.ValidateDeployment(env, true); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	rt.env = env
	rt.host = sim.NewHost(env.GPU)
	rt.clients = make([]*clientState, len(env.Clients))
	var reserved int64
	fail := func(c *sharing.Client, err error) error {
		env.GPU.FreeMemory(reserved)
		rt.clients = nil
		return fmt.Errorf("core: deploying %q: %w", c.App.Name, err)
	}
	for i, c := range env.Clients {
		if err := env.GPU.AllocMemory(c.App.MemoryBytes); err != nil {
			return fail(c, err)
		}
		reserved += c.App.MemoryBytes
		ctx, err := env.GPU.NewContext(sim.ContextOptions{
			Label: c.App.Name + "/default",
			Owner: sim.OwnerTag(c.ID),
		})
		if err != nil {
			return fail(c, err)
		}
		reserved += env.GPU.Config().ContextMemBytes
		rt.clients[i] = &clientState{
			c:          c,
			prov:       c.Quota,
			defaultCtx: ctx,
			defaultQ:   ctx.NewQueue(c.App.Name + "/q"),
			restricted: make(map[int]*restrictedSlot),
			ovh:        ClientOverhead{Client: c.App.Name},
		}
	}
	return nil
}

// Submit implements sharing.Scheduler.
func (rt *Runtime) Submit(r *sharing.Request) {
	cs := rt.clients[r.Client.ID]
	if !cs.live() || cs.leaving {
		// The client is gone or draining out; the request is dropped. The
		// harness stops counting a removed client's submissions itself.
		return
	}
	if cs.active == nil {
		cs.active = rt.newActive(r)
	} else {
		cs.queue = append(cs.queue, r)
	}
	if rt.bus.Enabled() {
		// Host-clock stamped (the admission decision happens on the host,
		// which can run ahead of the engine clock); the exact arrival
		// instant is recoverable from the completion event's latency.
		rt.bus.Emit(obs.Event{
			At: rt.host.Now(), Kind: obs.KindRequestAdmitted,
			Client: r.Client.App.Name, Seq: r.Seq,
		})
	}
	rt.kick()
}

// kick arms a scheduling round at the end of the current virtual instant, so
// that all same-instant arrivals join the same squad rather than the first
// arrival racing ahead of its simultaneous peers.
func (rt *Runtime) kick() {
	if rt.squadRunning || rt.kickPending {
		return
	}
	rt.kickPending = true
	if rt.kickFn == nil {
		rt.kickFn = func() {
			rt.kickPending = false
			if !rt.squadRunning {
				rt.startSquad()
			}
		}
	}
	rt.env.Eng.Schedule(rt.env.Eng.Now(), rt.kickFn)
}

// newActive initializes progress tracking for a request entering service.
func (rt *Runtime) newActive(r *sharing.Request) *activeRequest {
	c := r.Client
	partIdx := c.Profile.QuotaPartition(c.Quota)
	pace := 1.0
	if c.SLOTarget > 0 {
		iso := c.Profile.Iso[partIdx]
		if iso > 0 {
			pace = float64(c.SLOTarget) / float64(iso)
		}
	}
	return &activeRequest{
		req: r, partIdx: partIdx, pace: pace,
		activated:   rt.env.Eng.Now(),
		fromArrival: c.SLOTarget > 0,
	}
}

// startSquad runs one scheduling round: generate the squad, determine its
// execution configuration, and launch it through the kernel manager. The
// cycle re-arms itself from the squad-completion callback.
func (rt *Runtime) startSquad() {
	rt.enforceDeadlines()
	if cap(rt.activesScratch) < len(rt.clients) {
		rt.activesScratch = make([]*activeRequest, len(rt.clients))
		rt.clientsScratch = make([]*sharing.Client, len(rt.clients))
	}
	actives := rt.activesScratch[:len(rt.clients)]
	clients := rt.clientsScratch[:len(rt.clients)]
	for i, cs := range rt.clients {
		actives[i], clients[i] = nil, nil
		if !cs.live() {
			continue // departed: generation sees a nil slot
		}
		if a := cs.active; a != nil && !a.aborted {
			actives[i] = a
		}
		clients[i] = cs.c
	}
	squad, gen := generateSquadInfo(actives, clients, rt.host.Now(), GenerateOptions{
		MaxKernels:       rt.opts.MaxSquadKernels,
		RoundRobin:       rt.opts.DisableFairSelection,
		NoAdaptiveSizing: rt.opts.NoAdaptiveSizing,
		NoFlush:          rt.opts.NoFlush,
	}, &rt.genScratch)
	if squad == nil {
		rt.squadRunning = false
		return
	}
	seq := rt.squadsExecuted + 1

	if rt.bus.Enabled() {
		formedAt := rt.host.Now()
		members := make([]obs.SquadMember, len(squad.Entries))
		for i := range squad.Entries {
			e := &squad.Entries[i]
			members[i] = obs.SquadMember{
				Client: e.Client.App.Name,
				From:   e.Kernels[0],
				To:     e.Kernels[len(e.Kernels)-1] + 1,
			}
		}
		rt.bus.Emit(obs.Event{
			At: formedAt, Kind: obs.KindSquadFormed, Squad: seq,
			Reason: gen.stopReason, Members: members,
		})
		if gen.stopReason == "pace-cap" && gen.paceLimited >= 0 {
			rt.bus.Emit(obs.Event{
				At: formedAt, Kind: obs.KindPaceGuardTrip, Squad: seq,
				Client: clients[gen.paceLimited].App.Name, Reason: "duration-cap",
			})
		}
		if gen.flushClient >= 0 {
			rt.bus.Emit(obs.Event{
				At: formedAt, Kind: obs.KindEndgameFlush, Squad: seq,
				Client: clients[gen.flushClient].App.Name,
			})
		}
	}

	if cap(rt.quotasScratch) < len(squad.Entries) {
		rt.quotasScratch = make([]float64, len(squad.Entries))
	}
	quotas := rt.quotasScratch[:len(squad.Entries)]
	for i := range squad.Entries {
		quotas[i] = squad.Entries[i].Client.Quota
	}
	cfg := rt.detCache.determine(squad, rt.env.GPU.Config().SMs, quotas, DetermineOptions{
		Partitions:        rt.partitions(squad),
		ForceSpatialQuota: rt.opts.DisableDeterminer,
		InterferenceBeta:  rt.env.GPU.Config().InterferenceBeta,
		QuotaGuard:        rt.opts.QuotaGuard,
	})
	mode := "NSP"
	if cfg.Spatial {
		mode = "Semi-SP"
		if rt.opts.DisableSemiSP {
			mode = "SP"
		}
	}

	if rt.bus.Enabled() {
		members := make([]obs.SquadMember, len(squad.Entries))
		for i := range squad.Entries {
			e := &squad.Entries[i]
			members[i] = obs.SquadMember{
				Client: e.Client.App.Name,
				From:   e.Kernels[0],
				To:     e.Kernels[len(e.Kernels)-1] + 1,
			}
			if cfg.Spatial && i < len(cfg.SMs) {
				members[i].SMs = cfg.SMs[i]
			}
		}
		rt.bus.Emit(obs.Event{
			At: rt.host.Now(), Kind: obs.KindConfigChosen, Squad: seq,
			Mode: mode, Predicted: cfg.Estimate, Considered: cfg.Considered,
			Members: members,
		})
	}

	// Host scheduling cost (§6.9), overlapped with the previous squad's
	// device execution: only the overspend beyond the previous squad's
	// duration delays the GPU. The full cost is attributed per client in
	// proportion to its kernels in the squad.
	schedCost := rt.opts.SchedPerKernel * sim.Time(squad.Size())
	if over := schedCost - rt.prevSquadDur; over > 0 {
		rt.host.Spend(over)
	}

	rt.squadRunning = true
	rt.squadStarted = rt.host.Now()
	rt.curSquad = seq
	rt.curMode = mode
	rt.curPredicted = cfg.Estimate
	rt.curMembers = rt.curMembers[:0]
	for i := range squad.Entries {
		e := &squad.Entries[i]
		rt.curMembers = append(rt.curMembers, e.Client.ID)
		cs := rt.clients[e.Client.ID]
		cs.ovh.Kernels += int64(len(e.Kernels))
		cs.ovh.SchedTime += rt.opts.SchedPerKernel * sim.Time(len(e.Kernels))
	}
	if rt.opts.TraceSquad != nil {
		rt.opts.TraceSquad(rt.squadStarted, squad, cfg)
	}
	rt.squadsExecuted++
	rt.kernelsScheduled += int64(squad.Size())
	rt.configsEvaluated += int64(cfg.Considered)
	if cfg.Spatial {
		rt.spatialSquads++
	}
	rt.launchSquad(squad, cfg)
}

// partitions returns the determiner granularity, defaulting to the first
// entry's profile grid.
func (rt *Runtime) partitions(s *Squad) int {
	if rt.opts.Partitions > 0 {
		return rt.opts.Partitions
	}
	return s.Entries[0].Client.Profile.Partitions
}

// launchSquad is the concurrent kernel manager (§4.5): it launches the
// squad's kernels into per-client GPU contexts according to the execution
// configuration, realizing Semi-SP spatial-temporal sharing by redirecting
// each client's tail kernels to its unrestricted context once the restricted
// head completes. The squad-completion callback synchronizes (20us) and
// starts the next scheduling round.
func (rt *Runtime) launchSquad(squad *Squad, cfg ExecConfig) {
	rt.squadPendings = squad.Size()

	// Recycle the previous squad's gates: by this launch the prior squad
	// has fully drained (launchSquad only runs from a completed cycle), so
	// every pooled gate has opened and emptied its waiters. Waiter slices
	// are kept for capacity reuse.
	for i, g := range rt.gateUsed {
		g.expect, g.arrived, g.launchEnd, g.openAt, g.open = 0, 0, 0, 0, false
		g.waiters = g.waiters[:0]
		rt.gateFree = append(rt.gateFree, g)
		rt.gateUsed[i] = nil
	}
	rt.gateUsed = rt.gateUsed[:0]

	// Breadth-first launch order across entries starts cross-client
	// concurrency as early as possible; the host serializes the 3us
	// launches either way. The plan and gate slices are per-Runtime scratch:
	// nothing holds them past this call (closures capture value copies), and
	// a squad launches per few kernels, so per-squad allocation adds up.
	plan := rt.planScratch[:0]
	defer func() { rt.planScratch = plan }()

	if cap(rt.gateScratch) < len(squad.Entries) {
		rt.gateScratch = make([]*launchGate, len(squad.Entries))
	}
	gates := rt.gateScratch[:len(squad.Entries)]
	for i := range gates {
		gates[i] = nil
	}
	for i := range squad.Entries {
		e := &squad.Entries[i]
		cs := rt.clients[e.Client.ID]
		cs.active.inFlight += len(e.Kernels)

		if !cfg.Spatial {
			for _, k := range e.Kernels {
				plan = append(plan, plannedLaunch{entry: e, kIdx: k, q: cs.defaultQ})
			}
			continue
		}

		slot, err := rt.restrictedSlot(cs, cfg.SMs[i])
		if err != nil {
			// Context establishment failed (device memory exhausted by
			// application footprints): degrade this entry to the default
			// unrestricted context rather than stalling the squad.
			for _, k := range e.Kernels {
				plan = append(plan, plannedLaunch{entry: e, kIdx: k, q: cs.defaultQ})
			}
			continue
		}

		// Semi-SP: first c% of the entry's kernels run restricted; the
		// manager waits for them and redirects the tail to the unrestricted
		// context (Fig 7c). With Semi-SP disabled the whole entry stays
		// restricted (strict SP).
		split := len(e.Kernels)
		if !rt.opts.DisableSemiSP {
			split = int(float64(len(e.Kernels))*rt.opts.SplitRatio + 0.9999)
			if split < 1 {
				split = 1
			}
			if split > len(e.Kernels) {
				split = len(e.Kernels)
			}
		}
		head, tail := e.Kernels[:split], e.Kernels[split:]
		for _, k := range head {
			plan = append(plan, plannedLaunch{entry: e, kIdx: k, q: slot.q, smTag: cfg.SMs[i]})
		}
		if len(tail) > 0 {
			gate := rt.newGate()
			gates[i] = gate
			for _, k := range tail {
				plan = append(plan, plannedLaunch{entry: e, kIdx: k, q: cs.defaultQ, after: gate})
			}
		}
	}

	// Interleave entries breadth-first: sort by (position within entry,
	// entry order). The plan was built entry-major; re-order stably. The
	// persistent sorter keeps this allocation-free (sort.SliceStable builds
	// its less closure and reflection swapper per call).
	rt.planSort.plan = plan
	sort.Stable(&rt.planSort)
	rt.planSort.plan = nil

	// Wire gate triggers: a gate opens when the last restricted (head)
	// kernel of its entry completes, plus the context-switch vacuum.
	ctxSwitch := rt.env.GPU.Config().ContextSwitch
	kLaunch := rt.env.GPU.Config().KernelLaunch
	for i := range squad.Entries {
		if gates[i] == nil {
			continue
		}
		e := &squad.Entries[i]
		split := 0
		for _, pl := range plan {
			if pl.entry == e && pl.after == nil {
				split++
			}
		}
		gates[i].expect = split
	}

	for _, pl := range plan {
		pl := pl
		cs := rt.clients[pl.entry.Client.ID]
		k := &pl.entry.Client.App.Kernels[pl.kIdx]
		kd := rt.newKernelDone(pl.entry, pl.kIdx)
		gate := gateFor(gates, squad, pl.entry)

		if gate != nil && pl.after == nil {
			// Head kernel: completing it counts toward opening the gate.
			// The redirection vacuum runs concurrently with head execution
			// (launches to the restricted context stop during the squad's
			// launch phase), so the gate opens at the later of head
			// completion and vacuum end.
			kd.gate = gate
			kd.ctxSwitch = ctxSwitch
		}
		wrapped := kd.fn
		// The retry wrapper goes outermost: a faulted head kernel must not
		// open its Semi-SP gate (or advance squad bookkeeping) until a
		// relaunch actually succeeds.
		wrapped = rt.withRetry(cs, pl.q, k, pl.entry.Request.Seq, pl.kIdx, wrapped)

		if pl.after != nil {
			// Tail kernel: defer the launch until the gate opens (the open
			// time already includes the context-redirection vacuum), through
			// a pooled continuation — see tailLaunch.
			pl.after.then(rt.newTailLaunch(cs, pl.q, k, pl.entry.Request, wrapped, ctxSwitch, kLaunch).fn)
			continue
		}

		// Context-redirection vacuum when this client's launches move to a
		// different context than last time (§6.9): the client's kernels may
		// not arrive until the vacuum has elapsed since launches to the OLD
		// context ceased — by the next squad that is usually already behind
		// the previous squad's execution, so the vacuum hides.
		var notBefore sim.Time
		if cs.lastCtxSMs != pl.smTag {
			notBefore = cs.lastLaunchAt + ctxSwitch
			reason := "restrict"
			switch {
			case pl.smTag == 0:
				reason = "unrestrict"
			case cs.lastCtxSMs != 0:
				reason = "re-restrict"
			}
			cs.lastCtxSMs = pl.smTag
			cs.ovh.Switches++
			cs.ovh.SwitchTime += ctxSwitch
			if rt.bus.Enabled() {
				rt.bus.Emit(obs.Event{
					At: rt.host.Now(), Kind: obs.KindContextSwitch, Squad: rt.curSquad,
					Client: cs.c.App.Name, Reason: reason,
				})
			}
		}
		// CUDA-graph launch units (§6.10): only the first kernel of a graph
		// pays the host launch latency; the rest of the graph rides the same
		// call. A follower must never arrive before its leader, so it
		// arrives at the later of the host clock and the entry's previous
		// kernel's arrival (engine events at equal instants keep FIFO
		// order).
		app := pl.entry.Client.App
		graphFollower := app.GraphEnds != nil && pl.kIdx > 0 && app.GraphEnd(pl.kIdx-1) != pl.kIdx
		switch {
		case graphFollower && notBefore == 0:
			at := rt.host.Now()
			if cs.lastArrival > at {
				at = cs.lastArrival
			}
			at = rt.stallFloor(at)
			pl.q.Enqueue(at, k, wrapped)
			cs.lastArrival = at
		case notBefore > 0:
			notBefore = rt.stallFloor(notBefore)
			rt.host.LaunchAt(pl.q, k, notBefore, wrapped)
			cs.lastArrival = notBefore
			if hf := rt.host.Now(); hf > cs.lastArrival {
				cs.lastArrival = hf
			}
			cs.ovh.Launches++
			cs.ovh.LaunchTime += kLaunch
		default:
			if nb := rt.stallFloor(rt.host.Now()); nb > rt.host.Now() {
				// A device stall holds the launch; the host moves on.
				rt.host.LaunchAt(pl.q, k, nb, wrapped)
				cs.lastArrival = nb
				if hf := rt.host.Now(); hf > cs.lastArrival {
					cs.lastArrival = hf
				}
			} else {
				rt.host.Launch(pl.q, k, wrapped)
				cs.lastArrival = rt.host.Now()
			}
			cs.ovh.Launches++
			cs.ovh.LaunchTime += kLaunch
		}
		cs.lastLaunchAt = rt.host.Now()
		if gate != nil && pl.after == nil && cs.lastLaunchAt > gate.launchEnd {
			gate.launchEnd = cs.lastLaunchAt
		}
	}
}

// planSorter orders a squad's launch plan breadth-first: by the kernel's
// 0-based position within its entry (kIdx - Kernels[0]), stably, so entry
// order breaks ties. A persistent Runtime field with pointer-receiver
// methods keeps the per-squad sort allocation-free.
type planSorter struct{ plan []plannedLaunch }

func (p *planSorter) Len() int      { return len(p.plan) }
func (p *planSorter) Swap(a, b int) { p.plan[a], p.plan[b] = p.plan[b], p.plan[a] }
func (p *planSorter) Less(a, b int) bool {
	return p.plan[a].kIdx-p.plan[a].entry.Kernels[0] < p.plan[b].kIdx-p.plan[b].entry.Kernels[0]
}

// kernelDone is one kernel's completion continuation — the callback the sim
// fires when the kernel retires (wrapping in the Semi-SP head gate when the
// entry has one). Every launched kernel needs exactly one, so the Runtime
// pools them with their method closure pre-bound: a fresh closure per kernel
// was the simulator throughput benchmark's largest allocation site.
type kernelDone struct {
	rt     *Runtime
	client int
	req    *sharing.Request
	// last marks the request's final kernel (retiring it completes the
	// request).
	last bool
	// gate, when non-nil, receives this head kernel's arrival (Semi-SP);
	// the gate opens at the later of head completion and the
	// context-redirection vacuum end.
	gate      *launchGate
	ctxSwitch sim.Time
	// fn is kd.fire bound once at pool insertion and reused for the pooled
	// object's lifetime.
	fn func(sim.Time)
}

// newKernelDone takes a continuation from the pool (or mints one) and arms
// it for the given kernel.
func (rt *Runtime) newKernelDone(e *SquadEntry, kernelIdx int) *kernelDone {
	var kd *kernelDone
	if n := len(rt.kdFree); n > 0 {
		kd = rt.kdFree[n-1]
		rt.kdFree[n-1] = nil
		rt.kdFree = rt.kdFree[:n-1]
	} else {
		kd = &kernelDone{rt: rt}
		kd.fn = kd.fire
	}
	kd.client = e.Client.ID
	kd.req = e.Request
	kd.last = kernelIdx == e.Client.App.NumKernels()-1
	kd.gate = nil
	kd.ctxSwitch = 0
	return kd
}

// fire is the completion callback body. It releases kd back to the pool
// before the squad bookkeeping runs: squadDone may synchronously start the
// next squad, which re-arms pooled continuations for its own kernels.
func (kd *kernelDone) fire(at sim.Time) {
	rt := kd.rt
	if g := kd.gate; g != nil {
		ready := g.launchEnd + kd.ctxSwitch
		if at > ready {
			ready = at
		}
		g.arrive(ready)
	}
	cs := rt.clients[kd.client]
	req, last := kd.req, kd.last
	kd.req, kd.gate = nil, nil
	rt.kdFree = append(rt.kdFree, kd)

	if cs.dead {
		// Crash teardown already settled the request; only the squad
		// bookkeeping remains.
		rt.squadPendings--
		if rt.squadPendings == 0 {
			rt.squadDone(at)
		}
		return
	}
	if a := cs.active; a != nil && a.req == req {
		a.inFlight--
		// An aborted request completes (Failed) when its last launched
		// kernel drains; a healthy one when its final kernel retires.
		if last || (a.aborted && a.inFlight == 0) {
			rt.completeRequest(cs, req)
		}
	}
	rt.squadPendings--
	if rt.squadPendings == 0 {
		rt.squadDone(at)
	}
}

// tailLaunch is one Semi-SP tail kernel's gate continuation: the launch
// issued when its entry's head gate opens. Pooled like kernelDone — one is
// live per gated tail kernel, returned to the pool when its gate fires it —
// because a fresh closure per tail kernel was a top remaining allocation
// site on the steady-state path.
type tailLaunch struct {
	rt        *Runtime
	cs        *clientState
	q         *sim.Queue
	k         *sim.Kernel
	req       *sharing.Request
	wrapped   func(sim.Time)
	ctxSwitch sim.Time
	kLaunch   sim.Time
	// fn is tl.fire bound once at pool insertion and reused for the pooled
	// object's lifetime.
	fn func(sim.Time)
}

// newTailLaunch takes a continuation from the pool (or mints one) and arms it
// for the given tail kernel.
func (rt *Runtime) newTailLaunch(cs *clientState, q *sim.Queue, k *sim.Kernel, req *sharing.Request, wrapped func(sim.Time), ctxSwitch, kLaunch sim.Time) *tailLaunch {
	var tl *tailLaunch
	if n := len(rt.tlFree); n > 0 {
		tl = rt.tlFree[n-1]
		rt.tlFree[n-1] = nil
		rt.tlFree = rt.tlFree[:n-1]
	} else {
		tl = &tailLaunch{rt: rt}
		tl.fn = tl.fire
	}
	tl.cs, tl.q, tl.k, tl.req, tl.wrapped = cs, q, k, req, wrapped
	tl.ctxSwitch, tl.kLaunch = ctxSwitch, kLaunch
	return tl
}

// fire runs when the gate opens. It releases tl back to the pool before any
// bookkeeping: skipKernel may synchronously finish the squad and start the
// next round, which re-arms pooled continuations for its own kernels.
func (tl *tailLaunch) fire(openAt sim.Time) {
	rt, cs, q, k, req, wrapped := tl.rt, tl.cs, tl.q, tl.k, tl.req, tl.wrapped
	ctxSwitch, kLaunch := tl.ctxSwitch, tl.kLaunch
	tl.cs, tl.q, tl.k, tl.req, tl.wrapped = nil, nil, nil, nil, nil
	rt.tlFree = append(rt.tlFree, tl)

	if cs.dead {
		// The client crashed between planning and gate open: the kernel
		// never launches, settle its bookkeeping.
		rt.skipKernel(openAt)
		return
	}
	if a := cs.active; a != nil && a.req == req && a.aborted {
		// The request was aborted while its head ran: skip the tail
		// outright instead of burning device time on it.
		a.inFlight--
		if a.inFlight == 0 {
			rt.completeRequest(cs, a.req)
		}
		rt.skipKernel(openAt)
		return
	}
	if cs.lastCtxSMs != 0 {
		// First tail launch redirects this client back to its unrestricted
		// context: one switch per gate trip.
		cs.lastCtxSMs = 0
		cs.ovh.Switches++
		cs.ovh.SwitchTime += ctxSwitch
		if rt.bus.Enabled() {
			rt.bus.Emit(obs.Event{
				At: openAt, Kind: obs.KindContextSwitch, Squad: rt.curSquad,
				Client: cs.c.App.Name, Reason: "unrestrict",
			})
		}
	}
	rt.host.LaunchAt(q, k, rt.stallFloor(openAt), wrapped)
	cs.lastLaunchAt = rt.host.Now()
	cs.ovh.Launches++
	cs.ovh.LaunchTime += kLaunch
}

// newGate takes a launch gate from the pool (or mints one) and tracks it for
// recycling at the next launchSquad.
func (rt *Runtime) newGate() *launchGate {
	var g *launchGate
	if n := len(rt.gateFree); n > 0 {
		g = rt.gateFree[n-1]
		rt.gateFree[n-1] = nil
		rt.gateFree = rt.gateFree[:n-1]
	} else {
		g = &launchGate{}
	}
	rt.gateUsed = append(rt.gateUsed, g)
	return g
}

// gateFor finds the gate belonging to the entry, if any.
func gateFor(gates []*launchGate, s *Squad, e *SquadEntry) *launchGate {
	for i := range s.Entries {
		if &s.Entries[i] == e {
			return gates[i]
		}
	}
	return nil
}

// plannedLaunch is one kernel launch in a squad's breadth-first plan
// (launchSquad); the Runtime reuses one plan slice across squads.
type plannedLaunch struct {
	entry *SquadEntry
	kIdx  int
	q     *sim.Queue
	smTag int // context identity for vacuum accounting (0=default)
	after *launchGate
}

// launchGate delays tail launches until all head kernels of an entry finish.
type launchGate struct {
	expect    int
	arrived   int
	launchEnd sim.Time // host time of the last head-kernel launch
	openAt    sim.Time
	open      bool
	waiters   []func(sim.Time)
}

func (g *launchGate) arrive(readyAt sim.Time) {
	g.arrived++
	if readyAt > g.openAt {
		g.openAt = readyAt
	}
	if g.arrived >= g.expect && !g.open {
		g.open = true
		// Detach the waiter list before firing: the LAST waiter can
		// synchronously finish the squad (skip path) and start the next
		// round, which recycles this pooled gate and re-arms it with new
		// waiters — iterating the live field would then run the next
		// squad's continuations with this squad's open time. Only the final
		// waiter can recurse (each unfired waiter holds a pending kernel),
		// so the detached list is never appended to mid-loop.
		ws := g.waiters
		g.waiters = nil
		for _, w := range ws {
			w(g.openAt)
		}
		if g.waiters == nil {
			// Not recycled during the loop (or recycled but not re-armed):
			// hand the backing array back for capacity reuse.
			g.waiters = ws[:0]
		}
	}
}

func (g *launchGate) then(f func(sim.Time)) {
	if g.open {
		f(g.openAt)
		return
	}
	g.waiters = append(g.waiters, f)
}

// restrictedSlot returns (establishing on first use) the client's MPS context
// restricted to sms SMs. Establishment charges the per-context memory
// footprint; on exhaustion the nearest existing slot is reused.
func (rt *Runtime) restrictedSlot(cs *clientState, sms int) (*restrictedSlot, error) {
	if slot, ok := cs.restricted[sms]; ok {
		return slot, nil
	}
	if inj := rt.opts.Injector; inj != nil && inj.ContextFault(cs.c.ID, sms) {
		// Injected establishment failure: degrade to the nearest existing
		// restricted slot, or (via the error path) the default context. The
		// next establishment attempt for this size succeeds.
		rt.faults.CtxFaults++
		if rt.bus.Enabled() {
			rt.bus.Emit(obs.Event{
				At: rt.host.Now(), Kind: obs.KindContextFault, Squad: rt.curSquad,
				Client: cs.c.App.Name, Reason: fmt.Sprintf("sm%d", sms),
			})
		}
		if slot := cs.nearestSlot(sms); slot != nil {
			return slot, nil
		}
		return nil, fmt.Errorf("core: injected context fault for %q at %d SMs", cs.c.App.Name, sms)
	}
	ctx, err := rt.env.GPU.NewContext(sim.ContextOptions{
		SMLimit: sms,
		Label:   fmt.Sprintf("%s/sm%d", cs.c.App.Name, sms),
		Owner:   sim.OwnerTag(cs.c.ID),
	})
	if err != nil {
		if errors.Is(err, sim.ErrOutOfMemory) {
			if slot := cs.nearestSlot(sms); slot != nil {
				return slot, nil
			}
		}
		return nil, err
	}
	slot := &restrictedSlot{ctx: ctx, q: ctx.NewQueue(fmt.Sprintf("%s/q%d", cs.c.App.Name, sms))}
	cs.restricted[sms] = slot
	return slot, nil
}

// nearestSlot finds the established restricted context closest in SM count.
// Ties go to the smaller SM grant, so the choice does not depend on map
// iteration order.
func (cs *clientState) nearestSlot(sms int) *restrictedSlot {
	var best *restrictedSlot
	bestGap, bestGot := 1<<30, 0
	for got, slot := range cs.restricted {
		gap := got - sms
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap || (gap == bestGap && got < bestGot) {
			bestGap, bestGot, best = gap, got, slot
		}
	}
	return best
}

// completeRequest retires a finished request and activates the client's next
// queued one (FIFO, one active request per client — §4.3).
func (rt *Runtime) completeRequest(cs *clientState, r *sharing.Request) {
	if rt.bus.Enabled() {
		// Emitted at the completion instant, before the harness callback
		// fires, so subscribers see the span close ahead of any downstream
		// bookkeeping. Actual carries the exact latency.
		now := rt.env.Eng.Now()
		reason := "ok"
		if r.Failed {
			reason = "failed"
		}
		rt.bus.Emit(obs.Event{
			At: now, Kind: obs.KindRequestDone,
			Client: r.Client.App.Name, Seq: r.Seq,
			Reason: reason, Actual: now - r.Arrival,
		})
	}
	rt.env.Complete(r)
	cs.active = nil
	if len(cs.queue) > 0 {
		next := cs.queue[0]
		cs.queue = cs.queue[1:]
		cs.active = rt.newActive(next)
	} else if cs.leaving {
		// Graceful departure: the backlog just drained, hand the client's
		// resources back and re-provision the survivors.
		cs.leaving = false
		rt.releaseClient(cs)
		rt.reprovision(rt.env.Eng.Now())
	}
}

// squadDone fires when the squad's last kernel retires: synchronize with the
// device (20us, §6.9) and arm the next scheduling round. The round is kicked
// through the engine so that completions and arrivals landing at the same
// instant are all visible to squad generation.
func (rt *Runtime) squadDone(at sim.Time) {
	rt.prevSquadDur = at - rt.squadStarted
	rt.host.Sync()
	// Attribute the squad-boundary sync equally among the squad's members,
	// remainder to the first, so per-client sums stay exactly equal to
	// squads x SquadSync.
	if n := len(rt.curMembers); n > 0 {
		sync := rt.env.GPU.Config().SquadSync
		per := sync / sim.Time(n)
		for i, id := range rt.curMembers {
			cs := rt.clients[id]
			cs.ovh.Syncs++
			if i == 0 {
				cs.ovh.SyncTime += sync - per*sim.Time(n-1)
			} else {
				cs.ovh.SyncTime += per
			}
		}
	}
	if rt.bus.Enabled() {
		rt.bus.Emit(obs.Event{
			At: at, Kind: obs.KindSquadDone, Squad: rt.curSquad,
			Mode: rt.curMode, Predicted: rt.curPredicted, Actual: rt.prevSquadDur,
		})
	}
	rt.squadRunning = false
	rt.kick()
}

// Stats reports runtime counters for the overhead analysis.
type Stats struct {
	// SquadsExecuted counts completed scheduling rounds.
	SquadsExecuted int64
	// SpatialSquads counts squads the determiner chose to partition.
	SpatialSquads int64
	// KernelsScheduled counts kernels placed into squads.
	KernelsScheduled int64
	// ConfigsEvaluated counts estimator invocations across all rounds.
	ConfigsEvaluated int64
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		SquadsExecuted:   rt.squadsExecuted,
		SpatialSquads:    rt.spatialSquads,
		KernelsScheduled: rt.kernelsScheduled,
		ConfigsEvaluated: rt.configsEvaluated,
	}
}

// ClientOverhead is one client's share of the host-side overheads (§6.9),
// attributed at the decision points that incur them: per-kernel launch calls
// (3us each), context-redirection vacuums (50us per switch), squad-boundary
// synchronization (20us per squad, split among the members) and host
// scheduling work (6.7us per kernel, overlapped with device execution).
type ClientOverhead struct {
	// Client is the owning application's name.
	Client string
	// Kernels counts kernels scheduled into squads for this client.
	Kernels int64
	// Launches counts host launch calls (graph followers ride their
	// leader's call and are excluded).
	Launches int64
	// Switches counts context redirections (restrict, unrestrict or
	// re-restrict trips).
	Switches int64
	// Syncs counts squad-boundary synchronizations this client took part in.
	Syncs int64
	// LaunchTime, SwitchTime, SyncTime and SchedTime are the attributed
	// overhead times per source.
	LaunchTime sim.Time
	SwitchTime sim.Time
	SyncTime   sim.Time
	SchedTime  sim.Time
}

// Total sums the attributed overhead time across all four sources.
func (o ClientOverhead) Total() sim.Time {
	return o.LaunchTime + o.SwitchTime + o.SyncTime + o.SchedTime
}

// OverheadStats returns the per-client overhead breakdown, in deployment
// order. The launch and sync columns sum exactly to the host's independently
// measured accounting (see HostOverhead); switch and sched columns are
// decision-count times the §6.9 unit costs.
func (rt *Runtime) OverheadStats() []ClientOverhead {
	out := make([]ClientOverhead, len(rt.clients))
	for i, cs := range rt.clients {
		out[i] = cs.ovh
	}
	return out
}

// HostOverhead returns the simulated host's ground-truth time accounting,
// for cross-checking the decision-level attribution.
func (rt *Runtime) HostOverhead() sim.HostOverhead {
	if rt.host == nil {
		return sim.HostOverhead{}
	}
	return rt.host.Overhead()
}
