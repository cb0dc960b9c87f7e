// Package core implements BLESS itself: the multi-task scheduler that forms
// kernel squads (§4.3), the two kernel-squad performance estimators and the
// execution-configuration determiner (§4.4), and the concurrent kernel
// manager that realizes spatial-temporal sharing through multiple GPU
// contexts (§4.5). The assembled Runtime implements sharing.Scheduler.
package core

import (
	"fmt"
	"math"
	"strconv"

	"bless/internal/sharing"
	"bless/internal/sim"
)

// SquadEntry is one client's contribution to a kernel squad: a contiguous
// ascending run of kernel indices from its active request.
type SquadEntry struct {
	// Client owns the kernels.
	Client *sharing.Client
	// Request is the active request the kernels belong to.
	Request *sharing.Request
	// Kernels are indices into the client app's kernel sequence.
	Kernels []int
}

// Squad is a kernel squad: a group of kernels drawn from the concurrently
// active requests, scheduled and executed as a unit (§4.3.2).
type Squad struct {
	Entries []SquadEntry
}

// Size returns the total kernel count across entries.
func (s *Squad) Size() int {
	n := 0
	for i := range s.Entries {
		n += len(s.Entries[i].Kernels)
	}
	return n
}

// Validate checks squad well-formedness: non-empty entries with ascending,
// contiguous, in-range kernel indices.
func (s *Squad) Validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("core: empty squad")
	}
	for _, e := range s.Entries {
		if len(e.Kernels) == 0 {
			return fmt.Errorf("core: squad entry for %q has no kernels", e.Client.App.Name)
		}
		nk := e.Client.App.NumKernels()
		for i, k := range e.Kernels {
			if k < 0 || k >= nk {
				return fmt.Errorf("core: squad entry for %q: kernel index %d out of range [0,%d)", e.Client.App.Name, k, nk)
			}
			if i > 0 && k != e.Kernels[i-1]+1 {
				return fmt.Errorf("core: squad entry for %q: kernel indices not contiguous at %d", e.Client.App.Name, i)
			}
		}
	}
	return nil
}

// determineCache memoizes the execution-configuration search per squad
// signature. Closed-loop workloads re-form the same squad shapes over and
// over (same apps, same kernel windows, same quotas), so the C(N-1,K-1)
// configuration enumeration repeats with identical inputs; caching the
// decision removes that cost from the scheduling path.
//
// The cache lives on a Runtime, never across runs, so it is confined to one
// single-threaded simulation. The key is an exact spelling of every input
// Determine reads — the device SM count, the search options, and each
// entry's profile identity (app name), kernel window and quota — not a hash:
// a colliding key would replay the wrong configuration and silently corrupt
// determinism digests. A cached hit returns the identical ExecConfig a fresh
// search would produce, including the Considered count the overhead
// accounting and decision tracing publish.
type determineCache struct {
	m      map[string]ExecConfig
	keyBuf []byte
	hits   int64
	misses int64
}

// appendKey appends the exact cache key for one Determine call.
func (c *determineCache) appendKey(buf []byte, s *Squad, deviceSMs int, quotas []float64, opts DetermineOptions) []byte {
	buf = strconv.AppendInt(buf, int64(deviceSMs), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(opts.Partitions), 10)
	buf = append(buf, '|')
	if opts.ForceSpatialQuota {
		buf = append(buf, 'F')
	}
	if opts.QuotaGuard {
		buf = append(buf, 'G')
	}
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, math.Float64bits(opts.InterferenceBeta), 16)
	for i := range s.Entries {
		e := &s.Entries[i]
		buf = append(buf, ';')
		buf = append(buf, e.Client.App.Name...)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(e.Kernels[0]), 10)
		buf = append(buf, '+')
		buf = strconv.AppendInt(buf, int64(len(e.Kernels)), 10)
		buf = append(buf, '@')
		buf = strconv.AppendUint(buf, math.Float64bits(e.Client.Quota), 16)
	}
	for _, q := range quotas {
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, math.Float64bits(q), 16)
	}
	return buf
}

// determine answers from the cache or falls through to Determine. The
// returned SMs slice is shared with the cache entry and is read-only: the
// Runtime only indexes it, and closed-loop workloads hit the cache on
// nearly every squad, so a defensive copy per call was a top allocation
// site on the simulator hot path.
func (c *determineCache) determine(s *Squad, deviceSMs int, quotas []float64, opts DetermineOptions) ExecConfig {
	c.keyBuf = c.appendKey(c.keyBuf[:0], s, deviceSMs, quotas, opts)
	if cfg, ok := c.m[string(c.keyBuf)]; ok {
		c.hits++
		return cfg
	}
	c.misses++
	cfg := Determine(s, deviceSMs, quotas, opts)
	if c.m == nil {
		c.m = make(map[string]ExecConfig)
	}
	c.m[string(c.keyBuf)] = cfg
	return cfg
}

// activeRequest tracks the scheduling progress of one client's in-service
// request (§4.3.1). The multi-task scheduler handles one request per client
// at a time, FIFO.
type activeRequest struct {
	req *sharing.Request
	// nextK is the next unscheduled kernel index.
	nextK int
	// remaining counts launched-but-unfinished kernels of this request.
	inFlight int
	// partIdx is the quota's partition index into the client profile.
	partIdx int
	// pace scales the expected cumulative timeline: 1.0 targets the
	// isolated latency T[n%]; SLO mode stretches it to the QoS target
	// (§6.5).
	pace float64
	// activated is when the request entered service (left the client's FIFO
	// backlog). Pace tracking measures from activation, not arrival: a
	// client with a deep backlog is behind on throughput, not entitled to
	// starve its peers' per-request pace (the workload-E property, §6.4).
	activated sim.Time
	// fromArrival switches pace tracking back to the request's arrival.
	// SLO mode (§6.5) sets it: a QoS target is end-to-end, so queueing
	// delay must count as lag and be compensated.
	fromArrival bool
	// aborted marks a request the fault layer failed (retry budget or
	// deadline); its unscheduled kernels are skipped and it completes —
	// Failed — once nothing of it remains in flight.
	aborted bool
}

// expectedCum returns the expected time from request arrival to the end of
// the last scheduled kernel (tau[n%][k] scaled by pace). Zero scheduled
// kernels yield zero.
func (a *activeRequest) expectedCum(c *sharing.Client) sim.Time {
	if a.nextK == 0 {
		return 0
	}
	tau := c.Profile.Kernels[a.nextK-1].Cum[a.partIdx]
	return sim.Time(float64(tau) * a.pace)
}

// urgency computes the inverse relative progress of the request at time now:
// larger means the request is further behind its quota-isolated pace (§4.3.1,
// P~ = Pr/Pe with the quota target cancelled). Exposed for tests; squad
// generation embeds the same ratio with the in-squad frontier added.
func (a *activeRequest) urgency(c *sharing.Client, now sim.Time) float64 {
	te := now - a.serviceStart()
	if te < 1 {
		te = 1
	}
	exp := a.expectedCum(c)
	if exp < 1 {
		first := sim.Time(float64(c.Profile.Kernels[0].Cum[a.partIdx]) * a.pace)
		if first < 1 {
			first = 1
		}
		exp = first
	}
	return float64(te) / float64(exp)
}

// serviceStart returns when pace tracking begins: the request's arrival in
// SLO mode, else its activation.
func (a *activeRequest) serviceStart() sim.Time {
	if !a.fromArrival && a.activated > a.req.Arrival {
		return a.activated
	}
	return a.req.Arrival
}

// GenerateOptions tunes squad generation.
type GenerateOptions struct {
	// MaxKernels caps the squad size (the paper's empirical default is 50,
	// §6.7).
	MaxKernels int
	// RoundRobin disables fair progress-based selection (the Fig 20
	// ablation "w/o multi-task scheduler"): kernels are taken from active
	// requests in fixed rotation regardless of progress.
	RoundRobin bool
	// NoFlush disables the endgame flush (design ablation): squads never
	// fast-finish a nearly-done request, so lightly loaded clients stay in
	// pace-based sharing instead of settling into alternation.
	NoFlush bool
	// NoAdaptiveSizing disables the duration cap below; used by ablations
	// and the Fig 19(a) squad-size sweep, which measures the raw kernel cap.
	//
	// With sizing on (default), squad generation also stops once the
	// longest per-entry quota-pace timeline reaches the smallest pace
	// safety margin (theta) among the active requests. Pace guards act only
	// at squad boundaries, so a squad longer than theta could silently push
	// a peer behind its quota-isolated pace; the duration cap keeps
	// re-composition frequent enough for the guard to hold — and gives a
	// lone request short squads, so an arriving peer's resources are
	// re-configured "instantly" (§1).
	NoAdaptiveSizing bool
}

// DefaultMaxSquadKernels is the paper's testbed squad granularity (§6.7).
const DefaultMaxSquadKernels = 50

// paceSafetyFrac is the pace-guard margin: a request is treated as at risk of
// falling behind its quota-isolated timeline while its scheduled-work lead
// over elapsed time is below this fraction of the isolated latency.
const paceSafetyFrac = 0.1

// flushDeadlineSlack bounds the harm the endgame flush may impose on a peer:
// flushing is allowed only while every peer's projected completion under the
// flush (wait it out, then run at full-GPU speed) stays within this multiple
// of the peer's quota-isolated target measured from its service start. The
// deadline anchor is fixed, so repeated flushes against the same peer cannot
// compound — once earlier waits have consumed the slack, further flushes are
// denied and pace-based sharing resumes. The slack is what breaks
// phase-locked overlap into alternation, whose steady state is far below ISO
// for everyone; tight-target peers (biased deployments, low-occupancy apps
// that co-run for free) fail the check outright.
const flushDeadlineSlack = 1.15

// genInfo describes how squad generation ended, for decision tracing.
type genInfo struct {
	// stopReason says why generation stopped: "kernel-cap" (size cap
	// reached), "pace-cap" (the pace-guard duration cap tripped),
	// "request-end" (a selected kernel completes its request), "flush"
	// (endgame flush finished a request), or "drained" (no more selectable
	// kernels).
	stopReason string
	// flushClient is the flushed request's slot index, -1 when no flush.
	flushClient int
	// paceLimited is the slot index of the request whose in-squad timeline
	// hit the duration cap (-1 unless stopReason is "pace-cap").
	paceLimited int
}

// genScratch is squad generation's per-call selection state. None of the
// slices escape a generateSquadInfo call, so the Runtime keeps one scratch
// and reuses it across squads — generation runs per few kernels, and six
// fresh slices per squad added up on the hot path.
type genScratch struct {
	startK  []int
	ages    []sim.Time
	prior   []float64
	inSquad []float64
	theta   []float64
	target  []float64
	// Squad materialization buffers, recycled across generations: by the
	// time the next squad is generated the previous one has fully executed
	// (startSquad re-arms only from squadDone), so nothing references the
	// old entries or kernel-index backing anymore. A fresh Squad, flat
	// index buffer and entry slice per generation were the simulator
	// throughput benchmark's largest remaining per-squad allocation sites.
	flat    []int
	entries []SquadEntry
	squad   Squad
}

// grow resizes every slice to n and zeroes it.
func (g *genScratch) grow(n int) {
	if cap(g.startK) < n {
		g.startK = make([]int, n)
		g.ages = make([]sim.Time, n)
		g.prior = make([]float64, n)
		g.inSquad = make([]float64, n)
		g.theta = make([]float64, n)
		g.target = make([]float64, n)
	}
	g.startK = g.startK[:n]
	g.ages = g.ages[:n]
	g.prior = g.prior[:n]
	g.inSquad = g.inSquad[:n]
	g.theta = g.theta[:n]
	g.target = g.target[:n]
	for i := 0; i < n; i++ {
		g.startK[i] = 0
		g.ages[i] = 0
		g.prior[i] = 0
		g.inSquad[i] = 0
		g.theta[i] = 0
		g.target[i] = 0
	}
}

// generateSquad builds the next kernel squad from the active requests at
// virtual time now, advancing each chosen request's nextK. Generation stops
// when the cap is reached or a selected kernel completes a request (§4.3.2).
// Returns nil when no active request has unscheduled kernels.
func generateSquad(actives []*activeRequest, clients []*sharing.Client, now sim.Time, opts GenerateOptions) *Squad {
	var scr genScratch
	s, _ := generateSquadInfo(actives, clients, now, opts, &scr)
	return s
}

// generateSquadInfo is generateSquad plus the stop-reason metadata the
// observability layer publishes as decision events. scr is caller-owned
// scratch, valid only for the duration of the call.
func generateSquadInfo(actives []*activeRequest, clients []*sharing.Client, now sim.Time, opts GenerateOptions, scr *genScratch) (*Squad, genInfo) {
	maxK := opts.MaxKernels
	if maxK <= 0 {
		maxK = DefaultMaxSquadKernels
	}
	info := genInfo{flushClient: -1, paceLimited: -1}
	scr.grow(len(actives))

	// Selection only ever advances each request's kernel frontier, so the
	// picks per request form the contiguous range [startK[i], nextK) —
	// recording the starting frontier is enough to materialize the entries
	// from one exact-size buffer at the end.
	startK := scr.startK
	for i, a := range actives {
		if a != nil {
			startK[i] = a.nextK
		}
	}
	total := 0
	rrCursor := 0

	// Selection state per request (§4.3.1): age A = now - service start,
	// prior expected timeline P = tau at the last kernel scheduled in
	// EARLIER squads, and s = expected duration of kernels picked into THIS
	// squad. The tracked-kernel frontier makes te = A + s and tau = P + s.
	//
	// Selection is pace-guarded finish-first:
	//
	//  1. While any request is within a safety margin of falling behind its
	//     quota-isolated pace ((P+s) - A < theta), serve those, most-behind
	//     first by the relative-progress ratio — the compensation of
	//     §4.3.2, which also realizes the quota guarantee.
	//  2. Once every request is pace-safe, fill the squad with the request
	//     CLOSEST TO COMPLETION. Finishing requests early (instead of
	//     pinning all of them to fair-share pace) releases the whole GPU to
	//     the others sooner and lets lightly-loaded clients settle into
	//     alternating whole requests at near-solo latency — the
	//     bubble-squeezing payoff of §1.
	ages, prior, inSquad := scr.ages, scr.prior, scr.inSquad
	theta, target := scr.theta, scr.target
	for i, a := range actives {
		if a == nil {
			continue
		}
		ages[i] = now - a.serviceStart()
		if ages[i] < 1 {
			ages[i] = 1
		}
		prior[i] = float64(a.expectedCum(clients[i]))
		target[i] = float64(clients[i].Profile.Iso[a.partIdx]) * a.pace
		if target[i] < 1 {
			target[i] = 1
		}
		theta[i] = target[i] * paceSafetyFrac
	}
	// Duration cap: the squad's longest per-entry pace timeline may not
	// exceed the smallest safety margin among ALL deployed clients — idle
	// clients included, since any of them may submit mid-squad and must
	// have its resources re-configured within its own pace margin (the
	// "shrinks its resources instantly" property, §1). See
	// NoAdaptiveSizing.
	durationCap := 1e308
	if !opts.NoAdaptiveSizing {
		for i, c := range clients {
			if c == nil {
				continue
			}
			var t float64
			if a := actives[i]; a != nil {
				t = theta[i]
			} else {
				tgt := float64(c.Profile.IsoAtQuota(c.Quota))
				if c.SLOTarget > 0 {
					tgt = float64(c.SLOTarget)
				}
				t = tgt * paceSafetyFrac
			}
			if t > 0 && t < durationCap {
				durationCap = t
			}
		}
	}

	// Endgame flush target: a request more than half done, whose remaining
	// kernels fit the squad, may be finished outright — IF every peer still
	// meets its quota-isolated target afterwards. Completing a request
	// early releases the whole GPU (peers then run at full speed, which is
	// what makes the deadline check pass under light load) and shifts
	// client phases apart, letting lightly loaded clients alternate whole
	// requests at near-solo latency. Under tight targets the gate fails and
	// pace-based sharing proceeds (the workload-E property).
	flushTarget := -1
	if !opts.RoundRobin && !opts.NoFlush {
		bestP := 0.5
		for i, a := range actives {
			if a == nil || a.nextK >= a.req.Client.App.NumKernels() {
				continue
			}
			remain := a.req.Client.App.NumKernels() - a.nextK
			if remain > maxK {
				continue
			}
			p := prior[i] / target[i]
			if p <= bestP {
				continue
			}
			// Remaining full-GPU time of the flush candidate.
			prof := clients[i].Profile
			full := prof.Partitions - 1
			flushTime := float64(prof.Iso[full])
			if a.nextK > 0 {
				flushTime -= float64(prof.Kernels[a.nextK-1].Cum[full])
			}
			ok := true
			for j, b := range actives {
				if j == i || b == nil || b.nextK >= b.req.Client.App.NumKernels() {
					continue
				}
				pj := clients[j].Profile
				full := pj.Partitions - 1
				// Peer's remaining work at full-GPU speed.
				soloRemain := float64(pj.Iso[full])
				if b.nextK > 0 {
					soloRemain -= float64(pj.Kernels[b.nextK-1].Cum[full])
				}
				underFlush := float64(ages[j]) + flushTime + soloRemain
				if underFlush > target[j]*flushDeadlineSlack {
					ok = false
					break
				}
			}
			if ok {
				bestP, flushTarget = p, i
			}
		}
	}

	// kernelDelta returns the expected quota-pace duration of request i's
	// next kernel.
	kernelDelta := func(i int) float64 {
		a := actives[i]
		kp := &clients[i].Profile.Kernels[a.nextK]
		d := float64(kp.Cum[a.partIdx])
		if a.nextK > 0 {
			d -= float64(clients[i].Profile.Kernels[a.nextK-1].Cum[a.partIdx])
		}
		if d < 1 {
			d = 1
		}
		return d * a.pace
	}

	for total < maxK {
		sel := -1
		if opts.RoundRobin {
			// Fixed rotation over requests with kernels left.
			for probe := 0; probe < len(actives); probe++ {
				i := (rrCursor + probe) % len(actives)
				a := actives[i]
				if a != nil && a.nextK < a.req.Client.App.NumKernels() {
					sel = i
					rrCursor = i + 1
					break
				}
			}
		} else if flushTarget >= 0 {
			sel = flushTarget
		} else {
			// Pass 1: pace-at-risk requests, most behind first. The ratio is
			// recomputed per pick with the growing in-squad timeline, so
			// at-risk requests interleave in proportion to their lag and the
			// squad mixes — co-running beats serializing while several
			// requests need their pace.
			best := 0.0
			for i, a := range actives {
				if a == nil || a.nextK >= a.req.Client.App.NumKernels() {
					continue
				}
				cum := prior[i] + inSquad[i]
				if cum-float64(ages[i]) >= theta[i] {
					continue // comfortably ahead of pace
				}
				// Evaluated as if the next kernel were picked so fresh
				// requests (P=s=0) compare finitely.
				d := kernelDelta(i)
				u := (float64(ages[i]) + d) / (cum + d)
				if u > best {
					best, sel = u, i
				}
			}
			if sel < 0 {
				// Pass 2: everyone pace-safe — finish-first.
				bestP := -1.0
				for i, a := range actives {
					if a == nil || a.nextK >= a.req.Client.App.NumKernels() {
						continue
					}
					if p := (prior[i] + inSquad[i]) / target[i]; p > bestP {
						bestP, sel = p, i
					}
				}
			}
		}
		if sel < 0 {
			info.stopReason = "drained"
			break
		}
		a := actives[sel]
		// CUDA-graph granularity (§6.10): a selected kernel pulls in the
		// rest of its launch graph — graphs are single host calls and are
		// scheduled atomically, even past the size cap.
		graphEnd := a.req.Client.App.GraphEnd(a.nextK)
		for a.nextK < graphEnd {
			inSquad[sel] += kernelDelta(sel)
			a.nextK++
			total++
		}
		if a.nextK == a.req.Client.App.NumKernels() {
			// Selected kernel is the request's last: terminate generation.
			if sel == flushTarget {
				info.stopReason = "flush"
				info.flushClient = sel
			} else {
				info.stopReason = "request-end"
			}
			break
		}
		if inSquad[sel] >= durationCap {
			// Longest timeline hit the pace-guard margin.
			info.stopReason = "pace-cap"
			info.paceLimited = sel
			break
		}
	}
	if info.stopReason == "" {
		info.stopReason = "kernel-cap"
	}

	if total == 0 {
		return nil, info
	}

	flat := scr.flat[:0]
	if cap(flat) < total {
		flat = make([]int, 0, total)
	}
	entries := scr.entries[:0]
	for i, a := range actives {
		if a == nil || a.nextK == startK[i] {
			continue
		}
		first := len(flat)
		for k := startK[i]; k < a.nextK; k++ {
			flat = append(flat, k)
		}
		entries = append(entries, SquadEntry{
			Client:  clients[i],
			Request: a.req,
			Kernels: flat[first:len(flat):len(flat)],
		})
	}
	scr.flat = flat
	scr.entries = entries
	scr.squad.Entries = entries
	return &scr.squad, info
}
