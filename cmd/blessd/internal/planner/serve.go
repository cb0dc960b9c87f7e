package planner

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"bless/internal/core"
	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/metrics"
	"bless/internal/obs"
	"bless/internal/serveapi"
	"bless/internal/sim"
)

// The sustained-load serving front end: where Plan answers one what-if
// question per RPC, the Serve* surface keeps a deployment open and decides
// admission per request at line rate.
//
// A Serve call decides on the RPC goroutine it arrives on, under its
// tenant's mutex (core.ServeLane.Decide). Decisions are pure functions of
// per-tenant state and the client-stamped seq, so any interleaving across
// tenants produces bit-identical per-tenant digests; the cross-tenant fold
// (core.ServeDigest) is an XOR, insensitive to tenant order. That is what
// the serial-vs-concurrent digest gate in CI compares.
//
// Backpressure is per-tenant shedding: a request whose virtual queueing
// delay behind its lane would exceed the tenant's bound is rejected with a
// retry-after keyed on how far the lane overran, so overloaded tenants shed
// their own excess and in-quota tenants never shed. No decision depends on
// wall-clock timing.
//
// The in-order steady state allocates nothing (BenchmarkServeSteadyState
// gates allocs/op exactly); only a seq that arrives ahead of its tenant's
// cursor allocates, to park.

// The wire types live in internal/serveapi so RPC clients outside this
// internal tree (cmd/blessload) share them; aliased here to keep the
// planner's RPC surface self-describing.
type (
	// ServeTenant declares one tenant of an open serving deployment.
	ServeTenant = serveapi.ServeTenant
	// ServeOpenRequest opens a serving deployment.
	ServeOpenRequest = serveapi.ServeOpenRequest
	// ServeTenantInfo reports one tenant's derived admission parameters.
	ServeTenantInfo = serveapi.ServeTenantInfo
	// ServeOpenReply reports the opened deployment.
	ServeOpenReply = serveapi.ServeOpenReply
	// ServeRequest is one admission request (per-tenant seq order).
	ServeRequest = serveapi.ServeRequest
	// ServeReply is the admission decision.
	ServeReply = serveapi.ServeReply
	// ServeTenantStats is one tenant's accounting in ServeStatsReply.
	ServeTenantStats = serveapi.ServeTenantStats
	// ServeStatsReply is the open deployment's accounting.
	ServeStatsReply = serveapi.ServeStatsReply
	// ServeCloseReply carries the final stats of the closed deployment.
	ServeCloseReply = serveapi.ServeCloseReply
)

// serveTenantState is one tenant's admission lane and everything decided
// under its mutex: the lane, the hold list, and the tenant's share of the
// deployment's accounting.
type serveTenantState struct {
	name string

	mu     sync.Mutex
	lane   *core.ServeLane
	closed bool
	// hold reorders transport-scrambled arrivals: net/rpc serves each call
	// on its own goroutine, so a pipelining client's seq k+1 can take the
	// lock before seq k. Ahead-of-order calls park here (sorted by seq)
	// until the lane's cursor reaches them — decisions still execute in
	// strict per-tenant seq order, so reordering in flight cannot change
	// any decision or digest. Empty in the in-order steady state.
	hold []*serveWaiter
	// wait digests admitted virtual queueing delay; decNS, decisions and
	// batches time the lock acquisitions that decided (batches counts
	// them, decisions per batch exceeds 1 only when a call releases parked
	// successors).
	wait      metrics.Digest
	decNS     int64
	decisions uint64
	batches   uint64
}

// serveWaiter is a call parked on its tenant's hold list; the call that
// reaches its seq fills dec and signals done.
type serveWaiter struct {
	seq  int
	dec  core.ServeDecision
	err  error
	done chan struct{}
}

// serveState is one open deployment.
type serveState struct {
	tenants []*serveTenantState
	byName  map[string]*serveTenantState
	// inflight counts Serve calls past the open-deployment gate, so close
	// can drain them before failing whatever is still parked.
	inflight atomic.Int64
	budgetNS int64

	// trace, when enabled, keeps a ring of recent decision events;
	// traceNext is where the next event goes once the ring is full.
	trace     bool
	traceMu   sync.Mutex
	events    []obs.Event
	traceNext int

	// cached registry instruments (resolving by name is a map+lock).
	cOffered, cAdmitted, cShed *obs.Counter
	hWait                      *obs.Histogram
}

const serveTraceRing = 4096

// ServeOpen opens a serving deployment: profiles the tenants, runs the
// §4.2.2 placement admission pass over the pool (the whole tenant set as
// one batch — offered load beyond what places bubble-free is rejected
// here), and builds the per-tenant admission lanes.
func (p *Planner) ServeOpen(req ServeOpenRequest, reply *ServeOpenReply) error {
	if len(req.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants")
	}
	gpus := req.GPUs
	if gpus <= 0 {
		gpus = 1
	}
	cfg := sim.DefaultConfig()
	if req.GPUSMs > 0 {
		cfg.SMs = req.GPUSMs
	}

	// Placement admission: every tenant must place bubble-free on the pool
	// before the deployment opens — quota headroom is established here, and
	// per-request shedding keys on the per-tenant lanes it implies.
	apps := make([]core.PlacementApp, len(req.Tenants))
	lanes := make([]*core.ServeLane, len(req.Tenants))
	var kernelSum int64
	for i, t := range req.Tenants {
		if t.Name == "" {
			return fmt.Errorf("serve: tenant %d needs a name", i)
		}
		if t.RateRPS <= 0 {
			return fmt.Errorf("serve: tenant %q needs a positive RateRPS", t.Name)
		}
		prof, err := harness.ProfileFor(t.App, cfg)
		if err != nil {
			return fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		apps[i] = core.PlacementApp{Name: t.Name, Profile: prof, Quota: t.Quota}
		service := prof.IsoAtQuota(t.Quota)
		interval := sim.Time(float64(sim.Second) / t.RateRPS)
		bound := ms(t.BoundMS)
		if bound <= 0 {
			bound = 4 * service
		}
		lane, err := core.NewServeLane(interval, service, bound)
		if err != nil {
			return fmt.Errorf("serve: tenant %q: %w", t.Name, err)
		}
		// Seed by name so same-parameter tenants cannot cancel in the fold.
		lane.SeedDigest(t.Name)
		lanes[i] = lane
		kernelSum += int64(prof.NumKernels())
	}
	pool := make([]core.PlacementGPU, gpus)
	for i := range pool {
		pool[i] = core.PlacementGPU{ID: fmt.Sprintf("gpu%d", i), Config: cfg}
	}
	placement, err := core.Place(apps, pool)
	if err != nil {
		p.reg.Counter("serve/open_rejected_total").Inc()
		return fmt.Errorf("serve: placement admission failed: %w", err)
	}

	st := &serveState{
		byName: make(map[string]*serveTenantState, len(req.Tenants)),
		// §6.9 per-request budget: SchedPerKernel x mean kernels per request.
		budgetNS:  6700 * kernelSum / int64(len(req.Tenants)),
		trace:     req.Trace,
		cOffered:  p.reg.Counter("serve/offered_total"),
		cAdmitted: p.reg.Counter("serve/admitted_total"),
		cShed:     p.reg.Counter("serve/shed_total"),
		hWait:     p.reg.Histogram("serve/wait_virtual_ns"),
	}
	for i, t := range req.Tenants {
		if _, dup := st.byName[t.Name]; dup {
			return fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		ts := &serveTenantState{name: t.Name, lane: lanes[i]}
		st.tenants = append(st.tenants, ts)
		st.byName[t.Name] = ts
		reply.Tenants = append(reply.Tenants, ServeTenantInfo{
			Name:       t.Name,
			Device:     placement[i],
			IntervalNS: int64(lanes[i].Interval),
			ServiceNS:  int64(lanes[i].Service),
			BoundNS:    int64(lanes[i].Bound),
		})
	}

	p.mu.Lock()
	if p.serve.Load() != nil {
		p.mu.Unlock()
		return fmt.Errorf("serve: deployment already open (call ServeClose first)")
	}
	p.serve.Store(st)
	p.mu.Unlock()

	reply.GPUs = gpus
	p.reg.Counter("serve/opens_total").Inc()
	return nil
}

// Serve decides one request on the calling goroutine, under its tenant's
// mutex. An in-order seq decides at once, along with any parked successors
// it unblocks; an ahead-of-order seq parks until its predecessors decide; a
// stale seq is an error. The in-order path allocates nothing.
func (p *Planner) Serve(req ServeRequest, reply *ServeReply) error {
	st := p.serve.Load()
	if st == nil {
		return errServeClosed
	}
	t := st.byName[req.Tenant]
	if t == nil {
		return fmt.Errorf("serve: unknown tenant %q", req.Tenant)
	}
	st.cOffered.Inc()
	st.inflight.Add(1)
	var dec core.ServeDecision
	err := st.decide(t, req.Seq, &dec)
	st.inflight.Add(-1)
	reply.Seq = dec.Seq
	reply.Admitted = dec.Admitted
	reply.WaitNS = int64(dec.Wait)
	reply.ServiceNS = int64(dec.Service)
	reply.RetryAfterNS = int64(dec.RetryAfter)
	return err
}

// decide fills dec for seq, parking first when seq is ahead of the cursor.
func (st *serveState) decide(t *serveTenantState, seq int, dec *core.ServeDecision) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errServeClosed
	}
	switch next := t.lane.Next(); {
	case seq == next:
		st.decideChain(t, seq, dec)
		t.mu.Unlock()
		return nil
	case seq > next:
		w := &serveWaiter{seq: seq, done: make(chan struct{}, 1)}
		t.parkHold(w)
		t.mu.Unlock()
		<-w.done
		*dec = w.dec
		return w.err
	default:
		t.mu.Unlock()
		// Stale seq: already decided once — a client bug, surfaced as an
		// error, never a second decision.
		return fmt.Errorf("serve: tenant %q seq %d already decided (cursor at %d)", t.name, seq, next)
	}
}

// decideChain decides seq, then every parked successor it unblocks,
// signalling each. Caller holds t.mu and has checked seq is the cursor.
func (st *serveState) decideChain(t *serveTenantState, seq int, dec *core.ServeDecision) {
	t0 := time.Now()
	st.decideOne(t, seq, dec)
	n := uint64(1)
	for len(t.hold) > 0 && t.hold[0].seq == t.lane.Next() {
		w := t.hold[0]
		copy(t.hold, t.hold[1:])
		t.hold[len(t.hold)-1] = nil
		t.hold = t.hold[:len(t.hold)-1]
		st.decideOne(t, w.seq, &w.dec)
		w.done <- struct{}{}
		n++
	}
	t.decNS += int64(time.Since(t0))
	t.decisions += n
	t.batches++
}

// decideOne runs the lane decision and its accounting. Caller holds t.mu.
func (st *serveState) decideOne(t *serveTenantState, seq int, dec *core.ServeDecision) {
	t.lane.Decide(seq, dec)
	if dec.Admitted {
		t.wait.Observe(dec.Wait)
		st.hWait.Observe(dec.Wait)
		st.cAdmitted.Inc()
	} else {
		st.cShed.Inc()
	}
	if st.trace {
		st.record(t.name, dec)
	}
}

// parkHold inserts w into the tenant's sorted hold list. Caller holds t.mu.
func (t *serveTenantState) parkHold(w *serveWaiter) {
	i := len(t.hold)
	t.hold = append(t.hold, w)
	for i > 0 && t.hold[i-1].seq > w.seq {
		t.hold[i] = t.hold[i-1]
		i--
	}
	t.hold[i] = w
}

// record writes one decision into the trace ring.
func (st *serveState) record(tenant string, dec *core.ServeDecision) {
	ev := obs.Event{
		Kind:   obs.KindServeIntake,
		Client: tenant,
		Seq:    dec.Seq,
		At:     dec.Arrive,
		Actual: dec.Wait,
		Reason: "admit",
	}
	if !dec.Admitted {
		ev.Kind = obs.KindServeShed
		ev.Reason = "shed"
		ev.Predicted = dec.RetryAfter
	}
	st.traceMu.Lock()
	if len(st.events) < serveTraceRing {
		st.events = append(st.events, ev)
	} else {
		st.events[st.traceNext] = ev
		st.traceNext = (st.traceNext + 1) % serveTraceRing
	}
	st.traceMu.Unlock()
}

var errServeClosed = fmt.Errorf("serve: no open deployment (call ServeOpen first)")

// serveDrainDeadline bounds how long ServeClose waits for in-flight requests
// before failing parked ones with an error (overridden in tests).
var serveDrainDeadline = 5 * time.Second

// ServeStats reports the open deployment's accounting without disturbing
// intake.
func (p *Planner) ServeStats(_ struct{}, reply *ServeStatsReply) error {
	st := p.serve.Load()
	if st == nil {
		return errServeClosed
	}
	st.fill(reply, true)
	return nil
}

// fill computes the stats reply from the tenants' lanes and accounting.
func (st *serveState) fill(reply *ServeStatsReply, open bool) {
	reply.Open = open
	var wait metrics.Digest
	var decNS int64
	var decisions, batches uint64
	lanes := make([]*core.ServeLane, len(st.tenants))
	checks := make([]invariant.ServeLaneStats, len(st.tenants))
	for i, t := range st.tenants {
		t.mu.Lock()
		wait.Merge(&t.wait)
		decNS += t.decNS
		decisions += t.decisions
		batches += t.batches
		lanes[i] = t.lane
		offered := t.lane.Offered()
		reply.PerTenant = append(reply.PerTenant, ServeTenantStats{
			Name:       t.name,
			Offered:    offered,
			Admitted:   t.lane.Admitted,
			Shed:       t.lane.Shed,
			Digest:     fmt.Sprintf("%016x", t.lane.Digest()),
			HeadroomNS: int64(t.lane.Headroom()),
		})
		checks[i] = invariant.ServeLaneStats{
			Tenant:   t.name,
			Interval: t.lane.Interval,
			Service:  t.lane.Service,
			Bound:    t.lane.Bound,
			Offered:  offered,
			Admitted: t.lane.Admitted,
			Shed:     t.lane.Shed,
			NextSeq:  int(offered),
		}
		reply.Offered += offered
		reply.Admitted += t.lane.Admitted
		reply.Shed += t.lane.Shed
		t.mu.Unlock()
	}
	reply.Batches = batches
	if batches > 0 {
		reply.BatchMeanSize = float64(decisions) / float64(batches)
	}
	reply.Digest = fmt.Sprintf("%016x", core.ServeDigest(lanes))
	sum := wait.Summary()
	reply.WaitMeanNS = int64(sum.Mean)
	reply.WaitP50NS = int64(sum.P50)
	reply.WaitP99NS = int64(sum.P99)
	if decisions > 0 {
		reply.DecisionMeanNS = float64(decNS) / float64(decisions)
	}
	reply.BudgetNS = st.budgetNS
	reply.WithinBudget = reply.DecisionMeanNS <= float64(st.budgetNS)
	for _, v := range invariant.CheckServe(checks) {
		reply.Violations = append(reply.Violations, v.Msg)
	}
}

// ServeClose drains in-flight requests, closes every tenant, and returns the
// final stats.
func (p *Planner) ServeClose(_ struct{}, reply *ServeCloseReply) error {
	p.mu.Lock()
	st := p.serve.Load()
	if st == nil {
		p.mu.Unlock()
		return errServeClosed
	}
	p.serve.Store(nil)
	p.mu.Unlock()
	// New Serve calls now reject; wait out the ones already past the gate.
	// A bounded wait: a client that abandoned a pipeline mid-stream can
	// leave a seq gap whose parked successors never decide — after the
	// deadline they fail with an error.
	deadline := time.Now().Add(serveDrainDeadline)
	for st.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	for _, t := range st.tenants {
		t.mu.Lock()
		t.closed = true
		for _, w := range t.hold {
			w.err = errServeClosed
			w.done <- struct{}{}
		}
		t.hold = nil
		t.mu.Unlock()
	}
	st.fill(&reply.Stats, false)
	p.reg.Counter("serve/closes_total").Inc()
	return nil
}

// ServeServe handles GET /debug/bless/serve: the open deployment's live
// stats (and, when opened with Trace, the recent decision-event ring, oldest
// first) as JSON. 404 when no deployment is open.
func (p *Planner) ServeServe(w http.ResponseWriter, _ *http.Request) {
	st := p.serve.Load()
	if st == nil {
		http.Error(w, "no serving deployment open; call Planner.ServeOpen first", http.StatusNotFound)
		return
	}
	var stats ServeStatsReply
	st.fill(&stats, true)
	type event struct {
		Kind   string `json:"kind"`
		Tenant string `json:"tenant,omitempty"`
		Seq    int    `json:"seq"`
		WaitNS int64  `json:"wait_ns,omitempty"`
	}
	var events []event
	if st.trace {
		st.traceMu.Lock()
		for _, part := range [][]obs.Event{st.events[st.traceNext:], st.events[:st.traceNext]} {
			for _, ev := range part {
				events = append(events, event{
					Kind:   ev.Kind.String(),
					Tenant: ev.Client,
					Seq:    ev.Seq,
					WaitNS: int64(ev.Actual),
				})
			}
		}
		st.traceMu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"stats": stats, "events": events})
}

// RPC forwarding (see PlanService).

// ServeOpen forwards to Planner.ServeOpen.
func (s *PlanService) ServeOpen(req ServeOpenRequest, reply *ServeOpenReply) error {
	return s.p.ServeOpen(req, reply)
}

// Serve forwards to Planner.Serve.
func (s *PlanService) Serve(req ServeRequest, reply *ServeReply) error { return s.p.Serve(req, reply) }

// ServeStats forwards to Planner.ServeStats.
func (s *PlanService) ServeStats(req struct{}, reply *ServeStatsReply) error {
	return s.p.ServeStats(req, reply)
}

// ServeClose forwards to Planner.ServeClose.
func (s *PlanService) ServeClose(req struct{}, reply *ServeCloseReply) error {
	return s.p.ServeClose(req, reply)
}
