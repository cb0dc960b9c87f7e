package main

import (
	"fmt"
	"slices"
	"time"

	"bless/internal/core"
	"bless/internal/harness"
	"bless/internal/invariant"
	"bless/internal/model"
	"bless/internal/obs"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// colo: single-GPU co-location through harness.Run under BLESS. A pass
// runs every session of coloInputs(seed) once; the measured phase repeats
// passes until its budget is spent.

// coloTrace collects a traced pass's layer counts.
type coloTrace struct {
	events  int64
	kernels kernelCounter
	squads  []formedSquad
	stats   core.Stats
	vlat    []float64 // per-client mean latency over ISO
}

// formedSquad is one squad_formed event with the session it came from.
type formedSquad struct {
	session int
	members []obs.SquadMember
}

// maxProbeSquads bounds how many formed squads the Determine probe re-times.
const maxProbeSquads = 4000

// kernelCounter is a sim.Tracer counting retired kernels.
type kernelCounter struct{ n int64 }

func (k *kernelCounter) KernelStart(sim.Time, *sim.Queue, *sim.Kernel)        {}
func (k *kernelCounter) KernelEnd(sim.Time, *sim.Queue, *sim.Kernel, float64) { k.n++ }

// statser is the counter surface of the BLESS runtime.
type statser interface{ Stats() core.Stats }

// coloSessionRun runs one session. tr, when set, observes it; inv, when
// set, checks invariants.
func coloSessionRun(s coloSession, idx int, tr *coloTrace, inv *invariant.Options) (*harness.Result, error) {
	sched, err := harness.NewSystem("BLESS")
	if err != nil {
		return nil, err
	}
	cfg := harness.RunConfig{Scheduler: sched, Clients: s.Clients, Horizon: coloHorizon, Invariants: inv}
	if tr != nil {
		bus := obs.NewBus()
		bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
			tr.events++
			if ev.Kind == obs.KindSquadFormed && len(tr.squads) < maxProbeSquads {
				tr.squads = append(tr.squads, formedSquad{idx, ev.Members})
			}
		}))
		cfg.Bus = bus
		cfg.Tracers = []sim.Tracer{&tr.kernels}
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if st, ok := sched.(statser); ok {
			s := st.Stats()
			tr.stats.SquadsExecuted += s.SquadsExecuted
			tr.stats.KernelsScheduled += s.KernelsScheduled
			tr.stats.ConfigsEvaluated += s.ConfigsEvaluated
		}
		for _, c := range res.PerClient {
			if c.Completed > 0 && c.ISO > 0 {
				tr.vlat = append(tr.vlat, float64(c.Summary.Mean)/float64(c.ISO))
			}
		}
	}
	return res, nil
}

// coloPass is one pass over the session pool.
type coloPass struct {
	wall              []time.Duration // per session
	completed         []int64         // per session
	digests           []uint64        // per session
	submitted, failed int64
}

// coloPassRun runs every session once, timing each.
func coloPassRun(sessions []coloSession) (coloPass, error) {
	var out coloPass
	for i, s := range sessions {
		t0 := time.Now()
		res, err := coloSessionRun(s, i, nil, nil)
		d := time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("session %d: %w", i, err)
		}
		out.wall = append(out.wall, d)
		var done int64
		for _, c := range res.PerClient {
			out.submitted += int64(c.Submitted)
			out.failed += int64(c.Failed)
			done += int64(c.Completed)
		}
		out.completed = append(out.completed, done)
		out.digests = append(out.digests, harness.CompletionDigest(res))
	}
	return out, nil
}

// coloPasses runs untraced passes until budget is spent, and at least
// min of them.
func coloPasses(sessions []coloSession, budget time.Duration, min int) ([]coloPass, error) {
	var passes []coloPass
	start := time.Now()
	for len(passes) < min || time.Since(start) < budget {
		p, err := coloPassRun(sessions)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// sessionCost is each session's median wall time over the passes, in
// seconds: the per-session median keeps a slow stretch of the host from
// moving the total.
func sessionCost(passes []coloPass) []float64 {
	out := make([]float64, len(passes[0].wall))
	for i := range out {
		xs := make([]float64, len(passes))
		for p := range passes {
			xs[p] = passes[p].wall[i].Seconds()
		}
		out[i] = median(xs)
	}
	return out
}

// coloChecked runs every session once with invariants enforced, on two
// workers, and checks zero violations and the timed pass's digests.
func (r *run) coloChecked(sessions []coloSession, ref coloPass) error {
	type checked struct {
		digest     uint64
		violations int
	}
	inv := &invariant.Options{FailOnViolation: true, Enforce: invariant.Universal()}
	out, err := harness.ForEachParallel(2, sessions, func(i int, s coloSession) (checked, error) {
		res, err := coloSessionRun(s, i, nil, inv)
		if err != nil {
			return checked{}, err
		}
		c := checked{digest: harness.CompletionDigest(res), violations: -1}
		if res.Invariants != nil {
			c.violations = len(res.Invariants.Violations) + res.Invariants.Dropped
		}
		return c, nil
	})
	if err != nil {
		return fmt.Errorf("checked pass: %w", err)
	}
	bad := 0
	for i, c := range out {
		if c.violations != 0 || c.digest != ref.digests[i] {
			bad++
		}
	}
	r.check(bad == 0, "colo: %d of %d sessions failed the checked pass (invariant violations or a completion digest differing from the timed pass)", bad, len(sessions))
	return nil
}

func runColo(r *run) error {
	sessions := coloInputs(r.seed)
	setup, err := r.measureSetup("colo")
	if err != nil {
		return err
	}
	if _, err := warmProfiles(coloProfileSet()); err != nil {
		return err
	}

	// The untraced measured phase: the whole budget, or half of it when a
	// traced phase follows.
	budget := r.budget()
	if r.traced {
		budget /= 2
	}
	g0 := readGoStats()
	passes, err := coloPasses(sessions, budget, 2)
	if err != nil {
		return err
	}
	allocBytes, gcShare := readGoStats().since(g0)
	ref := passes[0]
	for _, p := range passes {
		r.op(p.submitted, p.submitted-sumInts(p.completed))
		r.check(slices.Equal(p.digests, ref.digests), "colo: a repeated pass's completion digests differ from the first pass's")
	}
	completed := sumInts(ref.completed)
	cost := sessionCost(passes)
	lat := make([]float64, len(cost))
	for i, c := range cost {
		lat[i] = c * 1e3
	}

	// The peak resident set of the measured phase, read before the checked
	// pass runs two sessions at once under invariant checkers.
	r.e2e["rss_mb"] = peakRSSMB()

	// Output checks: every request completes, and a checked pass with
	// invariants enforced reproduces the timed pass's completion digests.
	r.check(completed == ref.submitted && ref.failed == 0,
		"colo: %d submitted, %d completed, %d failed", ref.submitted, completed, ref.failed)
	if err := r.coloChecked(sessions, ref); err != nil {
		return err
	}

	r.e2e["setup_s"] = setup
	r.e2e["rps"] = float64(completed) / sum(cost)
	r.e2e["lat_p50_ms"] = quantile(lat, 0.5)
	r.e2e["lat_p99_ms"] = tail(lat)
	fmt.Printf("colo: %d sessions x %d passes; latency = each session's median over passes, %d samples, lat_p99_ms at p%.3g\n",
		len(sessions), len(passes), len(lat), 100*tailQuantile(len(lat)))
	if !r.traced {
		return nil
	}

	// The traced phase: every session runs twice back to back, untraced
	// and traced (a counting bus subscriber, a kernel counter, a span
	// around harness.Run), under one CPU profile. Layer counts come from
	// the first pass's traced runs.
	r.startTracing()
	prof, err := startCPU()
	if err != nil {
		return err
	}
	tr := &coloTrace{}
	var overheads []float64
	var tracedKernels int64
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start) < budget; pass++ {
		t := tr
		if pass > 0 {
			t = &coloTrace{}
		}
		var bad int
		ratio, err := paired(len(sessions), func(i int) (time.Duration, error) {
			t0 := time.Now()
			_, err := coloSessionRun(sessions[i], i, nil, nil)
			return time.Since(t0), err
		}, func(i int) (time.Duration, error) {
			id := r.sp.begin("harness.Run", 0)
			t0 := time.Now()
			res, err := coloSessionRun(sessions[i], i, t, nil)
			d := time.Since(t0)
			r.sp.end(id)
			if err == nil && harness.CompletionDigest(res) != ref.digests[i] {
				bad++
			}
			return d, err
		})
		if err != nil {
			return err
		}
		r.check(bad == 0, "colo: %d traced sessions' completion digests differ from the timed pass", bad)
		overheads = append(overheads, ratio-1)
		tracedKernels += 2 * t.kernels.n
	}
	p, err := prof.stop()
	if err != nil {
		return err
	}
	shares, cpuNS := attribute(p, simBuckets)

	// Invariant checking's cost, paired on the first block of sessions.
	inv := &invariant.Options{FailOnViolation: true, Enforce: invariant.Universal()}
	block := 7 * coloPerSize
	invX, err := paired(block, func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := coloSessionRun(sessions[i], i, nil, nil)
		return time.Since(t0), err
	}, func(i int) (time.Duration, error) {
		t0 := time.Now()
		_, err := coloSessionRun(sessions[i], i, nil, inv)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}

	pms, err := r.profileProbe(coloProfileSet())
	if err != nil {
		return err
	}
	det, err := r.determineProbe(sessions, tr.squads)
	if err != nil {
		return err
	}
	sess := durationsMS(r.sp.durations("harness.Run"))
	l := r.layer
	l["profiler.profile_ms"] = pms
	l["sim.kernels"] = float64(tr.kernels.n)
	l["sim.cpu_share"] = shares["sim"]
	l["sim.ns_per_kernel"] = shares["sim"] * float64(cpuNS) / float64(tracedKernels)
	st := tr.stats
	l["core.squads"] = float64(st.SquadsExecuted)
	l["core.configs_per_squad"] = float64(st.ConfigsEvaluated) / float64(st.SquadsExecuted)
	l["core.kernels_per_squad"] = float64(st.KernelsScheduled) / float64(st.SquadsExecuted)
	l["core.cpu_share"] = shares["core"]
	l["core.determine_us_p50"] = quantile(det, 0.5)
	l["core.determine_us_p99"] = quantile(det, 0.99)
	l["core.vlat_vs_iso"] = mean(tr.vlat)
	l["runtime.session_ms_p50"] = quantile(sess, 0.5)
	l["runtime.session_ms_p99"] = tail(sess)
	l["go.alloc_kb_per_req"] = allocBytes / 1024 / float64(completed*int64(len(passes)))
	l["go.gc_cpu_share"] = gcShare
	l["fleet.cpu_share"] = shares["fleet"]
	l["invariant.overhead_x"] = invX
	l["obs.events"] = float64(tr.events)
	l["obs.trace_overhead"] = median(overheads)
	return nil
}

// determineProbe re-times core.Determine on the traced pass's squads,
// rebuilt from their squad_formed events, and returns each call's time in
// microseconds. Calls bypass the runtime's memo cache, so this is the
// determine-miss cost.
func (r *run) determineProbe(sessions []coloSession, squads []formedSquad) ([]float64, error) {
	id := r.sp.begin("core.Determine", 0)
	defer r.sp.end(id)
	clients := make([]map[string]*sharing.Client, len(sessions))
	for i, s := range sessions {
		clients[i] = map[string]*sharing.Client{}
		for ci, c := range s.Clients {
			app, err := model.Get(c.App)
			if err != nil {
				return nil, err
			}
			prof, err := harness.ProfileFor(c.App, sim.DefaultConfig())
			if err != nil {
				return nil, err
			}
			clients[i][c.App] = &sharing.Client{ID: ci, App: app, Profile: prof, Quota: c.Quota}
		}
	}
	beta := sim.DefaultConfig().InterferenceBeta
	sms := sim.DefaultConfig().SMs
	out := make([]float64, 0, len(squads))
	for _, fs := range squads {
		sq := &core.Squad{}
		quotas := make([]float64, 0, len(fs.members))
		for _, m := range fs.members {
			c := clients[fs.session][m.Client]
			if c == nil {
				return nil, fmt.Errorf("squad member %q not in session %d", m.Client, fs.session)
			}
			ks := make([]int, 0, m.To-m.From)
			for k := m.From; k < m.To; k++ {
				ks = append(ks, k)
			}
			sq.Entries = append(sq.Entries, core.SquadEntry{Client: c, Kernels: ks})
			quotas = append(quotas, c.Quota)
		}
		opts := core.DetermineOptions{Partitions: sq.Entries[0].Client.Profile.Partitions, InterferenceBeta: beta}
		t0 := time.Now()
		core.Determine(sq, sms, quotas, opts)
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// startTracing begins the traced phase: spans start recording, and every
// per-layer metric reads 0 until the workload fills in the layers it
// exercises.
func (r *run) startTracing() {
	r.sp = newSpans()
	for _, m := range perLayerCatalog() {
		r.layer[m.Name] = 0
	}
}
