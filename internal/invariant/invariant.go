// Package invariant is the simulator's machine-checked safety net: a
// pluggable checker that subscribes to the sim.GPU tracer fan-out and the
// internal/obs decision-event bus and verifies, on every simulated event, the
// properties BLESS's evaluation claims and a refactor could silently break:
//
//   - Conservation — allocated SMs never exceed device capacity, no context
//     exceeds its SM-affinity limit, and no kernel receives more than it
//     demanded (busy + idle always equals capacity).
//   - Order — virtual time never regresses across device events, and each
//     device queue executes strictly FIFO, one kernel at a time.
//   - Quota — every client's long-run attained SM share covers its
//     demand-capped provisioned quota within tolerance (the paper's stringent
//     quota guarantee, §6.2).
//   - Bubble — SMs do not sit idle while deferred demand exists (a paused
//     backlog or a kernel throttled below its appetite by a context cap): the
//     bubble-lessness the system is named for (§3.2, Fig 3).
//   - Determinism — two runs of the same configuration fold their event
//     streams to the same Digest, making any hidden nondeterminism (map
//     iteration, time-of-day leakage) a one-bit failure.
//
// Conservation and Order are universal: every scheduler must satisfy them.
// Quota and Bubble are policy properties that several baselines violate by
// design (that is the paper's thesis), so they are assessed on every run but
// only enforced when listed in Options.Enforce. Every violation carries the
// offending instant and a replayable repro string, so a CI failure is one
// command to reproduce.
package invariant

import (
	"fmt"
	"math"

	"bless/internal/obs"
	"bless/internal/sim"
)

// Class enumerates the invariant families the checker verifies.
type Class int

const (
	// Conservation covers SM accounting: total allocation within capacity,
	// per-context allocations within SM-affinity limits, grants never above
	// demand.
	Conservation Class = iota
	// Order covers virtual-time monotonicity and per-queue FIFO execution.
	Order
	// Quota covers the long-run attained-share guarantee per client.
	Quota
	// Bubble covers bubble-lessness: no sustained SM idling under deferred
	// demand.
	Bubble
	// Determinism covers digest equality across same-configuration runs. The
	// checker computes the digest; comparing two runs is the caller's step
	// (see harness.VerifyDeterminism).
	Determinism
	// Delivery covers request and kernel conservation under faults and
	// churn: every submitted request of a still-present client completes
	// exactly once (lost or duplicated completions are breaches), and every
	// injected kernel fault is answered by exactly one retry or abort — no
	// kernel is lost or double-counted across the retry path.
	Delivery
	// Fleet covers the multi-device control plane: no request is lost or
	// duplicated across live migration, device crash re-routing, or
	// autoscaling; every live tenant is provisioned on exactly one device
	// at settle points (at most two mid-migration); and no device's
	// subscribed quota exceeds its SM capacity. Checked by FleetChecker,
	// which the fleet control plane drives directly — it is not part of
	// the per-device tracer-driven enforcement sets.
	Fleet
	// Serve covers the sustained-load front end's admission contract: no
	// request is lost (every offered request is decided exactly once —
	// admitted+shed == offered, seqs contiguous per tenant), and shedding
	// is fair to provisioned load — a tenant offering at or below its
	// bubble-free quota rate (interval >= iso service time) never sheds.
	// Checked by CheckServe over the serve path's per-tenant lane stats.
	Serve
)

// String names the class for messages and exports.
func (c Class) String() string {
	switch c {
	case Conservation:
		return "conservation"
	case Order:
		return "order"
	case Quota:
		return "quota"
	case Bubble:
		return "bubble"
	case Determinism:
		return "determinism"
	case Delivery:
		return "delivery"
	case Fleet:
		return "fleet"
	case Serve:
		return "serve"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Universal lists the classes every scheduler must satisfy; they are the
// default enforcement set.
func Universal() []Class { return []Class{Conservation, Order} }

// All lists every enforceable class (Determinism is verified across runs, not
// within one, so it is not part of the in-run enforcement sets).
func All() []Class { return []Class{Conservation, Order, Quota, Bubble, Delivery} }

// Violation is one detected invariant breach.
type Violation struct {
	// Class is the violated invariant family.
	Class Class
	// At is the virtual time of the offending event (the run end for the
	// run-level Quota and Bubble verdicts).
	At sim.Time
	// Msg describes the breach, including the offending event's specifics.
	Msg string
	// Repro is the command or seed/config description that replays the run.
	Repro string
}

// Error formats the violation as a one-line diagnosis.
func (v Violation) Error() string {
	s := fmt.Sprintf("invariant %s violated at %v: %s", v.Class, v.At, v.Msg)
	if v.Repro != "" {
		s += fmt.Sprintf(" (reproduce: %s)", v.Repro)
	}
	return s
}

// Client declares one deployed client for quota attribution. Contexts tagged
// with sim.OwnerTag(ID) are attributed to it.
type Client struct {
	// ID is the client's slot index, matching sharing.Client.ID.
	ID int
	// Name is the application name, for messages.
	Name string
	// Quota is the provisioned GPU fraction in (0, 1].
	Quota float64
	// StartsInactive declares a client that joins mid-run (dynamic
	// admission): no quota or delivery accounting accrues until
	// SetClientActive marks it present.
	StartsInactive bool
}

// Options tunes the checker. The zero value enables the universal classes
// with the default tolerances.
type Options struct {
	// Repro is attached to every violation: the command or seed/config that
	// reproduces the run.
	Repro string
	// Enforce lists the classes whose breaches become Violations; the rest
	// are still assessed and reported in the Report but do not fail the run.
	// Nil means Universal().
	Enforce []Class
	// FailOnViolation asks embedding layers (harness.Run) to turn enforced
	// violations into a run error.
	FailOnViolation bool

	// SMSlack is the absolute SM tolerance for conservation comparisons,
	// absorbing float rounding in the max-min water-filling. Default 0.001.
	SMSlack float64
	// QuotaTolerance is the relative shortfall a client's long-run attained
	// share may show against its demand-capped quota share. Default 0.15
	// (squad granularity, context-switch vacuums and launch gaps all eat into
	// the ideal share).
	QuotaTolerance float64
	// MinDemandTime gates the run-level Quota and Bubble verdicts: windows
	// shorter than this carry too little signal. Default 2ms.
	MinDemandTime sim.Time
	// BubbleSlackSMs is the idle/deferred SM threshold below which an
	// instant does not count as a bubble. Default 2.
	BubbleSlackSMs float64
	// BubbleMaxFraction is the largest tolerated fraction of demand time
	// spent in bubbles. Default 0.10.
	BubbleMaxFraction float64
	// MaxViolations caps stored violations; further breaches only increment
	// the dropped counter. Default 16.
	MaxViolations int
	// SettleWindow pauses quota and bubble accrual for this long after every
	// churn or re-provisioning notification: reconfiguration is not instant
	// (in-flight kernels are un-preemptable), so attainment is only judged
	// outside the transition windows — the bounded re-attainment window of
	// the churn guarantee. Default 25ms.
	SettleWindow sim.Time
}

// withDefaults fills unset tuning knobs.
func (o Options) withDefaults() Options {
	if o.Enforce == nil {
		o.Enforce = Universal()
	}
	if o.SMSlack <= 0 {
		o.SMSlack = 0.001
	}
	if o.QuotaTolerance <= 0 {
		o.QuotaTolerance = 0.15
	}
	if o.MinDemandTime <= 0 {
		o.MinDemandTime = 2 * sim.Millisecond
	}
	if o.BubbleSlackSMs <= 0 {
		o.BubbleSlackSMs = 2
	}
	if o.BubbleMaxFraction <= 0 {
		o.BubbleMaxFraction = 0.10
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 16
	}
	if o.SettleWindow <= 0 {
		o.SettleWindow = 25 * sim.Millisecond
	}
	return o
}

// ClientReport is one client's quota assessment.
type ClientReport struct {
	// Client echoes the declaration.
	Client Client
	// DemandTime is the total time the client had a nonzero SM appetite.
	DemandTime sim.Time
	// ExpectedSMTime is the integral of min(appetite, quota SMs) over time,
	// in SM-nanoseconds — the share the quota entitles the client to, capped
	// by what its kernels could actually occupy.
	ExpectedSMTime float64
	// AttainedSMTime is the integral of the client's SM allocations, in
	// SM-nanoseconds.
	AttainedSMTime float64
	// Share is AttainedSMTime / ExpectedSMTime (1 when nothing was expected).
	Share float64
	// Violated reports whether the quota invariant flagged this client
	// (regardless of whether Quota was enforced).
	Violated bool
	// Active reports whether the client was present at the end of the run;
	// departed (crashed or left) clients are exempt from the quota and
	// delivery verdicts.
	Active bool
	// Submitted, Completed and Failed count the client's request lifecycle
	// as reported via RequestSubmitted / RequestCompleted.
	Submitted, Completed, Failed int64
}

// Report is the checker's complete end-of-run assessment.
type Report struct {
	// Violations are the enforced-class breaches, in detection order.
	Violations []Violation
	// Observations are breaches of assessed-but-unenforced classes.
	Observations []Violation
	// Dropped counts violations beyond the MaxViolations cap.
	Dropped int
	// Clients are the per-client quota assessments, in declaration order.
	Clients []ClientReport
	// BubbleTime is the total time spent with idle SMs under deferred demand.
	BubbleTime sim.Time
	// DemandTime is the total time any client had a nonzero SM appetite.
	DemandTime sim.Time
	// BubbleFraction is BubbleTime / DemandTime (0 when no demand).
	BubbleFraction float64
	// Kernels counts retired kernels; Samples counts allocation snapshots;
	// Events counts decision-bus events.
	Kernels, Samples, Events int64
	// Faults, Retries and Aborts count the fault-path events observed on the
	// decision bus; ChurnEvents counts churn/re-provisioning notifications.
	Faults, Retries, Aborts, ChurnEvents int64
	// Digest folds the complete observed event stream; equal configurations
	// must produce equal digests (the Determinism invariant).
	Digest uint64
}

// Err returns the first enforced violation as an error, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// queueState is the checker's per-queue bookkeeping.
type queueState struct {
	// fifo holds enqueued-but-unstarted kernels in arrival order.
	fifo []*sim.Kernel
	// running is the kernel the queue reported started and not yet ended.
	running *sim.Kernel
	// sawEnqueue records whether the queue's enqueues are visible: FIFO
	// order is only checkable for kernels observed entering the queue.
	sawEnqueue bool
}

// sampleLoad is the checker's copy of one queue's load at the last snapshot.
type sampleLoad struct {
	client      int // -1 when the owning context is unowned
	alloc, want float64
}

// clientAccum integrates one client's allocation history.
type clientAccum struct {
	demandNS   float64
	expectedIn float64 // ∫ min(want, quotaSMs) dt
	attainedIn float64 // ∫ alloc dt
}

// Checker verifies the invariants over one run. Attach it to the device with
// GPU.AddTracer (it implements sim.Tracer, sim.AllocationTracer and
// sim.EnqueueTracer) and to the decision bus with Bus.Subscribe, run the
// simulation, then call Report. A Checker observes exactly one run; it is not
// safe for concurrent use (the simulation is single-threaded).
type Checker struct {
	opts     Options
	cfg      sim.Config
	clients  []Client
	quotaSMs []float64
	enforce  map[Class]bool

	violations   []Violation
	observations []Violation
	dropped      int

	lastAt  sim.Time
	digest  uint64
	kernels int64
	samples int64
	events  int64

	queues map[*sim.Queue]*queueState

	// verifySample scratch, indexed by context ID and reused across
	// samples: each context's summed allocation and the context itself.
	ctxAlloc []float64
	ctxOf    []*sim.Context

	// piecewise-constant integration state
	haveSample bool
	lastSample sim.Time
	prev       []sampleLoad
	accum      []clientAccum
	bubbleNS   float64
	demandNS   float64

	// churn state: which clients are present, and until when accrual is
	// suspended after the latest churn notification (see churn.go).
	active       []bool
	suspendUntil sim.Time
	churnEvents  int64

	// delivery accounting (see churn.go).
	submitted    []int64
	completedReq []int64
	failedReq    []int64
	faultsSeen   int64
	retriesSeen  int64
	retryAborts  int64
	abortsSeen   int64

	finishedClients []ClientReport
	finished        *Report
}

// New creates a checker for a run on a device with the given configuration.
// clients may be nil when quota attribution is not wanted (only universal
// classes are then assessable).
func New(clients []Client, cfg sim.Config, opts Options) *Checker {
	opts = opts.withDefaults()
	c := &Checker{
		opts:    opts,
		cfg:     cfg,
		clients: clients,
		enforce: make(map[Class]bool, len(opts.Enforce)),
		queues:  make(map[*sim.Queue]*queueState),
		digest:  fnvOffset,
		accum:   make([]clientAccum, len(clients)),
	}
	for _, cl := range opts.Enforce {
		c.enforce[cl] = true
	}
	c.quotaSMs = make([]float64, len(clients))
	c.active = make([]bool, len(clients))
	c.submitted = make([]int64, len(clients))
	c.completedReq = make([]int64, len(clients))
	c.failedReq = make([]int64, len(clients))
	for i, cl := range clients {
		c.quotaSMs[i] = cl.Quota * float64(cfg.SMs)
		c.active[i] = !cl.StartsInactive
	}
	return c
}

// violate records a breach of class at time at.
func (c *Checker) violate(class Class, at sim.Time, format string, args ...any) {
	v := Violation{Class: class, At: at, Msg: fmt.Sprintf(format, args...), Repro: c.opts.Repro}
	sink := &c.observations
	if c.enforce[class] {
		sink = &c.violations
	}
	if len(*sink) >= c.opts.MaxViolations {
		c.dropped++
		return
	}
	*sink = append(*sink, v)
}

// qs returns (creating) the per-queue state.
func (c *Checker) qs(q *sim.Queue) *queueState {
	s := c.queues[q]
	if s == nil {
		s = &queueState{}
		c.queues[q] = s
	}
	return s
}

// monotonic checks virtual time never regresses across device events.
func (c *Checker) monotonic(at sim.Time, what string, q *sim.Queue) {
	if at < c.lastAt {
		c.violate(Order, at, "%s on queue %q at %v after an event at %v: virtual time regressed",
			what, q.Label(), at, c.lastAt)
		return
	}
	c.lastAt = at
}

// KernelEnqueued implements sim.EnqueueTracer.
func (c *Checker) KernelEnqueued(at sim.Time, q *sim.Queue, k *sim.Kernel) {
	c.monotonic(at, "enqueue", q)
	s := c.qs(q)
	s.sawEnqueue = true
	s.fifo = append(s.fifo, k)
	c.mix(tagEnqueue, uint64(at))
	c.mixString(q.Label())
	c.mixString(k.Name)
}

// KernelStart implements sim.Tracer.
func (c *Checker) KernelStart(at sim.Time, q *sim.Queue, k *sim.Kernel) {
	c.monotonic(at, "kernel start", q)
	s := c.qs(q)
	if s.running != nil {
		c.violate(Order, at, "kernel %q started on queue %q while %q still runs: queues execute one kernel at a time",
			k.Name, q.Label(), s.running.Name)
	}
	if s.sawEnqueue {
		if len(s.fifo) == 0 {
			c.violate(Order, at, "kernel %q started on queue %q without a matching enqueue", k.Name, q.Label())
		} else {
			if s.fifo[0] != k {
				c.violate(Order, at, "queue %q dispatched %q ahead of the earlier-enqueued %q: FIFO order violated",
					q.Label(), k.Name, s.fifo[0].Name)
			}
			s.fifo = s.fifo[1:]
		}
	}
	s.running = k
	c.mix(tagStart, uint64(at))
	c.mixString(q.Label())
	c.mixString(k.Name)
}

// KernelEnd implements sim.Tracer.
func (c *Checker) KernelEnd(at sim.Time, q *sim.Queue, k *sim.Kernel, avgSMs float64) {
	c.monotonic(at, "kernel end", q)
	s := c.qs(q)
	if s.running != k {
		name := "<none>"
		if s.running != nil {
			name = s.running.Name
		}
		c.violate(Order, at, "kernel %q ended on queue %q but %s was running: completions must match starts",
			k.Name, q.Label(), name)
	}
	s.running = nil
	c.kernels++
	c.mix(tagEnd, uint64(at))
	c.mixString(q.Label())
	c.mixString(k.Name)
	c.mix(tagFloat, math.Float64bits(avgSMs))
}

// Publish implements obs.Subscriber: decision events are folded into the
// digest. Their timestamps are host-clock stamped (the host runs ahead of the
// device while it launches), so they join the digest but not the device
// monotonicity check.
func (c *Checker) Publish(ev obs.Event) {
	c.events++
	switch ev.Kind {
	case obs.KindKernelFault:
		c.faultsSeen++
	case obs.KindKernelRetry:
		c.retriesSeen++
	case obs.KindRequestAbort:
		c.abortsSeen++
		if ev.Reason == "retries-exhausted" {
			c.retryAborts++
		}
	}
	c.mix(tagDecision, uint64(ev.At))
	c.mix(tagDecision, uint64(ev.Kind))
	c.mix(tagDecision, uint64(ev.Squad))
	c.mixString(ev.Client)
	c.mixString(ev.Mode)
	c.mixString(ev.Reason)
	c.mix(tagDecision, uint64(ev.Predicted))
	c.mix(tagDecision, uint64(ev.Actual))
	c.mix(tagDecision, uint64(ev.Considered))
	for _, m := range ev.Members {
		c.mixString(m.Client)
		c.mix(tagDecision, uint64(m.From))
		c.mix(tagDecision, uint64(m.To))
		c.mix(tagDecision, uint64(m.SMs))
	}
}

// AllocationsChanged implements sim.AllocationTracer: integrate the previous
// allocation picture up to now, then verify and store the new one.
func (c *Checker) AllocationsChanged(at sim.Time, loads []sim.QueueLoad) {
	c.integrate(at)
	c.verifySample(at, loads)
	c.store(loads)
	c.lastSample = at
	c.haveSample = true
	c.samples++

	total := 0.0
	for _, ql := range loads {
		total += ql.Alloc
	}
	c.mix(tagSample, uint64(at))
	c.mix(tagFloat, math.Float64bits(total))
}

// integrate advances the quota and bubble integrals over [lastSample, at]
// using the stored (piecewise-constant) loads.
func (c *Checker) integrate(at sim.Time) {
	if !c.haveSample || at <= c.lastSample {
		return
	}
	// Inside a churn settle window neither quota nor bubble accrual runs:
	// the device is legitimately reconfiguring. Integration resumes from
	// the window's end (rates are piecewise-constant, so the partial
	// interval integrates exactly).
	start := c.lastSample
	if start < c.suspendUntil {
		if at <= c.suspendUntil {
			return
		}
		start = c.suspendUntil
	}
	dt := float64(at - start)

	// Deferred demand is measured against each kernel's unrestricted appetite
	// (Want ignores context SM caps): an ISO partition starving behind its cap
	// while the partner's share idles IS the bubble the paper attacks, so caps
	// must not excuse it.
	totalAlloc, totalWant, deferred := 0.0, 0.0, 0.0
	perClientWant := map[int]float64{}
	perClientAlloc := map[int]float64{}
	for _, l := range c.prev {
		totalAlloc += l.alloc
		totalWant += l.want
		if d := l.want - l.alloc; d > 0 {
			deferred += d
		}
		if l.client >= 0 {
			perClientWant[l.client] += l.want
			perClientAlloc[l.client] += l.alloc
		}
	}

	if totalWant > 0 {
		c.demandNS += dt
		idle := float64(c.cfg.SMs) - totalAlloc
		if bubble := math.Min(idle, deferred); bubble > c.opts.BubbleSlackSMs {
			c.bubbleNS += dt
		}
	}

	for id := range c.accum {
		if !c.active[id] {
			continue // departed or not-yet-joined: no quota entitlement
		}
		want := perClientWant[id]
		if want <= 0 {
			continue
		}
		a := &c.accum[id]
		a.demandNS += dt
		a.expectedIn += math.Min(want, c.quotaSMs[id]) * dt
		a.attainedIn += perClientAlloc[id] * dt
	}
}

// verifySample checks the instantaneous conservation invariants on a fresh
// snapshot.
func (c *Checker) verifySample(at sim.Time, loads []sim.QueueLoad) {
	slack := c.opts.SMSlack
	total := 0.0
	for _, ql := range loads {
		if ql.Alloc < -slack {
			c.violate(Conservation, at, "queue %q holds a negative allocation %g", ql.Queue.Label(), ql.Alloc)
		}
		if ql.Running != nil && ql.Running.IsCompute() && ql.Alloc > ql.Demand+slack {
			c.violate(Conservation, at, "kernel %q on queue %q granted %.3f SMs above its demand %.3f",
				ql.Running.Name, ql.Queue.Label(), ql.Alloc, ql.Demand)
		}
		total += ql.Alloc
		ctx := ql.Queue.Context()
		id := ctx.ID()
		for len(c.ctxAlloc) <= id {
			c.ctxAlloc = append(c.ctxAlloc, 0)
			c.ctxOf = append(c.ctxOf, nil)
		}
		c.ctxAlloc[id] += ql.Alloc
		c.ctxOf[id] = ctx
	}
	if cap := float64(c.cfg.SMs); total > cap+slack {
		c.violate(Conservation, at, "allocated %.3f SMs on a %d-SM device: busy+idle exceeds capacity", total, c.cfg.SMs)
	}
	// Contexts are checked (and reported) in ID order.
	for id, ctx := range c.ctxOf {
		if ctx == nil {
			continue
		}
		if alloc := c.ctxAlloc[id]; ctx.SMLimit > 0 && alloc > float64(ctx.SMLimit)+slack {
			c.violate(Conservation, at, "context %q holds %.3f SMs above its SM-affinity limit %d",
				ctx.Label(), alloc, ctx.SMLimit)
		}
		c.ctxAlloc[id], c.ctxOf[id] = 0, nil
	}
}

// store copies the snapshot into the checker's own buffer (the device reuses
// the loads slice).
func (c *Checker) store(loads []sim.QueueLoad) {
	c.prev = c.prev[:0]
	for _, ql := range loads {
		ctx := ql.Queue.Context()
		client := -1
		if id, ok := ctx.Owner(); ok {
			client = id
		}
		c.prev = append(c.prev, sampleLoad{client: client, alloc: ql.Alloc, want: ql.Want})
	}
}

// Digest returns the fold of every event observed so far. Two runs of the
// same configuration must produce identical digests; any divergence is
// nondeterminism.
func (c *Checker) Digest() uint64 { return c.digest }

// Report finalizes the run-level Quota and Bubble verdicts and returns the
// complete assessment. Call after the simulation has drained; subsequent
// calls return the same report.
func (c *Checker) Report() *Report {
	if c.finished != nil {
		return c.finished
	}
	end := c.lastSample

	for i, cl := range c.clients {
		a := c.accum[i]
		cr := ClientReport{
			Client:         cl,
			DemandTime:     sim.Time(a.demandNS),
			ExpectedSMTime: a.expectedIn,
			AttainedSMTime: a.attainedIn,
			Share:          1,
			Active:         c.active[i],
			Submitted:      c.submitted[i],
			Completed:      c.completedReq[i],
			Failed:         c.failedReq[i],
		}
		if a.expectedIn > 0 {
			cr.Share = a.attainedIn / a.expectedIn
		}
		// Departed clients are exempt: the quota and delivery guarantees
		// cover the surviving set (their in-flight work was cancelled).
		if cr.Active {
			if done := cr.Completed + cr.Failed; done != cr.Submitted {
				c.violate(Delivery, end,
					"client %q submitted %d requests but %d completed (%d ok, %d failed): requests were lost or duplicated",
					cl.Name, cr.Submitted, done, cr.Completed, cr.Failed)
			}
		}
		if cr.Active && cr.DemandTime >= c.opts.MinDemandTime && cr.Share < 1-c.opts.QuotaTolerance {
			cr.Violated = true
			c.violate(Quota, end,
				"client %q attained %.1f%% of its demand-capped quota share (quota %.2f = %.1f SMs, demand time %v, tolerance %.0f%%)",
				cl.Name, cr.Share*100, cl.Quota, c.quotaSMs[i], cr.DemandTime, c.opts.QuotaTolerance*100)
		}
		c.finishedClients = append(c.finishedClients, cr)
	}

	rep := &Report{
		Violations:   c.violations,
		Observations: c.observations,
		Dropped:      c.dropped,
		Clients:      c.finishedClients,
		BubbleTime:   sim.Time(c.bubbleNS),
		DemandTime:   sim.Time(c.demandNS),
		Kernels:      c.kernels,
		Samples:      c.samples,
		Events:       c.events,
		Faults:       c.faultsSeen,
		Retries:      c.retriesSeen,
		Aborts:       c.abortsSeen,
		ChurnEvents:  c.churnEvents,
		Digest:       c.digest,
	}
	// Fault conservation: every injected kernel fault is answered by exactly
	// one retry or one terminal retry-abort — no fault vanishes on the retry
	// path and none is handled twice.
	if c.faultsSeen != c.retriesSeen+c.retryAborts {
		c.violate(Delivery, end,
			"%d kernel faults but %d retries + %d retry-aborts: the retry path lost or duplicated a fault",
			c.faultsSeen, c.retriesSeen, c.retryAborts)
	}
	if c.demandNS > 0 {
		rep.BubbleFraction = c.bubbleNS / c.demandNS
	}
	if rep.DemandTime >= c.opts.MinDemandTime && rep.BubbleFraction > c.opts.BubbleMaxFraction {
		c.violate(Bubble, end,
			"SMs idled under deferred demand for %.1f%% of the %v demand window (tolerance %.0f%%): the schedule leaves bubbles",
			rep.BubbleFraction*100, rep.DemandTime, c.opts.BubbleMaxFraction*100)
	}
	// The Quota/Bubble checks above may have appended; recapture the slices.
	rep.Violations = c.violations
	rep.Observations = c.observations
	c.finished = rep
	return rep
}
