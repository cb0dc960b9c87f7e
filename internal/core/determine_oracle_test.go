package core

import (
	"math/rand"
	"slices"
	"testing"

	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sharing"
	"bless/internal/sim"
)

// naiveDetermine is the reference for Determine: the same §4.4 search — the
// unrestricted estimate, every composition of the n partitions into k parts
// in lexicographic order for k <= maxEnumerate or the quota-seeded hill
// climb above it, first strict minimum wins, and the QuotaGuard fallback —
// written without any of Determine's machinery. Each candidate is estimated
// by EstimateSpatial and each feasibility stack and budget is re-summed from
// the profile; there is no stack table and no determineCache.
func naiveDetermine(s *Squad, deviceSMs int, quotas []float64, opts DetermineOptions) ExecConfig {
	n := opts.Partitions
	if n <= 0 {
		n = 18
	}
	k := len(s.Entries)
	if opts.ForceSpatialQuota {
		sms := quotaSplit(deviceSMs, n, quotas)
		return ExecConfig{Spatial: true, SMs: sms, Estimate: EstimateSpatial(s, sms), Considered: 1}
	}
	nsp := EstimateUnrestricted(s, deviceSMs, opts.InterferenceBeta)
	if k == 1 {
		return ExecConfig{Estimate: nsp, Considered: 1}
	}

	stackAt := func(e *SquadEntry, sms int) sim.Time {
		var t sim.Time
		for _, kk := range e.Kernels {
			t += e.Client.Profile.KernelDurAt(kk, sms)
		}
		return t
	}
	type candidate struct {
		sms      []int
		est      sim.Time
		feasible bool
	}
	var visited []candidate
	eval := func(parts []int) sim.Time {
		c := candidate{sms: make([]int, k), feasible: true}
		for i, p := range parts {
			c.sms[i] = deviceSMs * p / n
		}
		c.est = EstimateSpatial(s, c.sms)
		if opts.QuotaGuard {
			for i := range s.Entries {
				e := &s.Entries[i]
				b := stackAt(e, e.Client.QuotaSMs(deviceSMs))
				if stackAt(e, c.sms[i]) > b+b/50 {
					c.feasible = false
				}
			}
		}
		visited = append(visited, c)
		return c.est
	}

	switch {
	case k > n: // no spatial split exists
	case k <= maxEnumerate:
		// Odometer over [1, n]^k, most significant digit first: the tuples
		// summing to n come out in lexicographic order.
		parts := make([]int, k)
		for i := range parts {
			parts[i] = 1
		}
		for {
			sum := 0
			for _, p := range parts {
				sum += p
			}
			if sum == n {
				eval(parts)
			}
			i := k - 1
			for i >= 0 && parts[i] == n {
				parts[i] = 1
				i--
			}
			if i < 0 {
				break
			}
			parts[i]++
		}
	default:
		// Quota-proportional start, the slack on the last entry; then move
		// one partition between an ordered pair (from, to) at a time, taking
		// the first strict improvement, for at most 4n rounds.
		best := make([]int, k)
		left := n
		for i := range best {
			q := 1.0 / float64(k)
			if i < len(quotas) {
				q = quotas[i]
			}
			p := max(int(q*float64(n)+0.5), 1)
			p = min(p, left-(k-1-i))
			best[i] = p
			left -= p
		}
		best[k-1] += left
		bestEst := eval(best)
		for round := 0; round < 4*n; round++ {
			improved := false
		search:
			for from := range best {
				if best[from] <= 1 {
					continue
				}
				for to := range best {
					if to == from {
						continue
					}
					cand := slices.Clone(best)
					cand[from]--
					cand[to]++
					if est := eval(cand); est < bestEst {
						best, bestEst, improved = cand, est, true
						break search
					}
				}
			}
			if !improved {
				break
			}
		}
	}

	considered := 1 + len(visited)
	first := func(ok func(candidate) bool) (candidate, bool) {
		var best candidate
		found := false
		for _, c := range visited {
			if ok(c) && (!found || c.est < best.est) {
				best, found = c, true
			}
		}
		return best, found
	}
	nspFeasible := true
	if opts.QuotaGuard {
		for i := range s.Entries {
			e := &s.Entries[i]
			b := stackAt(e, e.Client.QuotaSMs(deviceSMs))
			if nsp > b+b/50 {
				nspFeasible = false
			}
		}
	}
	feasible, haveFeasible := first(func(c candidate) bool { return c.feasible })
	unrestricted := ExecConfig{Estimate: nsp, Considered: considered}
	spatial := func(c candidate) ExecConfig {
		return ExecConfig{Spatial: true, SMs: c.sms, Estimate: c.est, Considered: considered}
	}
	switch {
	case haveFeasible && nspFeasible:
		if feasible.est < nsp {
			return spatial(feasible)
		}
		return unrestricted
	case haveFeasible:
		return spatial(feasible)
	case nspFeasible:
		return unrestricted
	}
	// Nothing is pace-feasible: the unconstrained optimum.
	if c, ok := first(func(candidate) bool { return true }); ok && c.est < nsp {
		return spatial(c)
	}
	return unrestricted
}

// TestDetermineMatchesNaive compares Determine with naiveDetermine on seeded
// squads of 1–6 entries drawn from every catalog app, on 60-, 80- and
// 108-SM devices, with 18 and 12 partitions, β 0 and 0.16, and QuotaGuard
// and ForceSpatialQuota each on and off. Spatial, SMs, Estimate and
// Considered must all be equal.
func TestDetermineMatchesNaive(t *testing.T) {
	squads := 60
	if testing.Short() {
		squads = 24
	}
	same := func(a, b ExecConfig) bool {
		return a.Spatial == b.Spatial && slices.Equal(a.SMs, b.SMs) &&
			a.Estimate == b.Estimate && a.Considered == b.Considered
	}
	names := model.Names()
	var spatial, unrestricted, climbed int
	for _, deviceSMs := range []int{60, 80, 108} {
		cfg := sim.DefaultConfig()
		cfg.SMs = deviceSMs
		profiles := make([]*profiler.Profile, len(names))
		for i, name := range names {
			p, err := profiler.ProfileApp(model.MustGet(name), profiler.Options{Config: cfg})
			if err != nil {
				t.Fatalf("profile %s on %d SMs: %v", name, deviceSMs, err)
			}
			profiles[i] = p
		}
		rng := rand.New(rand.NewSource(int64(deviceSMs)))
		for sq := 0; sq < squads; sq++ {
			k := 1 + sq%6
			s, quotas := seededSquad(rng, names, profiles, sq, k)
			for _, partitions := range []int{18, 12} {
				for _, beta := range []float64{0, 0.16} {
					for _, guard := range []bool{false, true} {
						for _, force := range []bool{false, true} {
							opts := DetermineOptions{Partitions: partitions, InterferenceBeta: beta, QuotaGuard: guard, ForceSpatialQuota: force}
							got := Determine(s, deviceSMs, quotas, opts)
							want := naiveDetermine(s, deviceSMs, quotas, opts)
							if !same(got, want) {
								t.Fatalf("%d SMs, squad %d (k=%d), %+v:\nDetermine %+v\nnaive     %+v",
									deviceSMs, sq, k, opts, got, want)
							}
							if force {
								continue
							}
							if got.Spatial {
								spatial++
								if k > maxEnumerate {
									climbed++
								}
							} else {
								unrestricted++
							}
						}
					}
				}
			}
		}
	}
	if spatial == 0 || unrestricted == 0 || climbed == 0 {
		t.Fatalf("search outcomes not covered: %d spatial (%d by hill climb), %d unrestricted",
			spatial, climbed, unrestricted)
	}

	// Two edges the catalog squads do not reach, on one-kernel synthetic
	// profiles over the 18-partition grid of a 108-SM device.
	grid := func(dur func(sms int) sim.Time) *profiler.Profile {
		p := &profiler.Profile{Partitions: 18, DeviceSMs: 108, PartitionSMs: make([]int, 18)}
		kp := profiler.KernelProfile{Dur: make([]sim.Time, 18), MaxSMs: 108, IsCompute: true}
		for i := range p.PartitionSMs {
			p.PartitionSMs[i] = 108 * (i + 1) / 18
			kp.Dur[i] = dur(p.PartitionSMs[i])
		}
		p.Kernels = []profiler.KernelProfile{kp}
		return p
	}
	entry := func(p *profiler.Profile, quota float64) SquadEntry {
		c := &sharing.Client{Profile: p, Quota: quota}
		return SquadEntry{Client: c, Request: &sharing.Request{Client: c}, Kernels: []int{0}}
	}
	flat := grid(func(int) sim.Time { return 1000 })
	scaling := func(work sim.Time) *profiler.Profile {
		return grid(func(sms int) sim.Time { return work / sim.Time(sms) })
	}
	// 1000 at the 54-SM quota grant, so its budget is 1020: exactly the
	// stack at 48 SMs, which the guard must still accept.
	onBudget := grid(func(sms int) sim.Time {
		switch {
		case sms == 48:
			return 1020
		case sms >= 54:
			return 1000 - sim.Time(sms-54)
		}
		return 1020 * 48 / sim.Time(sms)
	})
	edges := []struct {
		name   string
		squad  *Squad
		quotas []float64
	}{
		// Entry 1's quota is the whole device, so no split is pace-feasible
		// and neither is the unrestricted run; the fallback's minimum (the
		// flat entry's 1000) ties across many splits and the first wins.
		{"tied fallback", &Squad{Entries: []SquadEntry{entry(flat, 0.1), entry(scaling(36000), 1)}}, []float64{0.1, 1}},
		// The fastest pace-feasible split puts entry 0 exactly on its budget.
		{"stack on budget", &Squad{Entries: []SquadEntry{entry(onBudget, 0.5), entry(scaling(144000), 0.05)}}, []float64{0.5, 0.05}},
	}
	for _, tc := range edges {
		for _, beta := range []float64{0, 0.16} {
			for _, guard := range []bool{false, true} {
				opts := DetermineOptions{Partitions: 18, InterferenceBeta: beta, QuotaGuard: guard}
				got := Determine(tc.squad, 108, tc.quotas, opts)
				want := naiveDetermine(tc.squad, 108, tc.quotas, opts)
				if !same(got, want) {
					t.Fatalf("%s, %+v:\nDetermine %+v\nnaive     %+v", tc.name, opts, got, want)
				}
			}
		}
	}
}

// seededSquad draws a k-entry squad: entry i runs catalog app
// (sq+i) mod len(names), so consecutive squads cover the whole catalog, over
// a random window of its kernels. Quotas are random and sum to 1 on odd
// squads (the device fully provisioned: QuotaGuard often finds nothing
// feasible) and to less on even ones.
func seededSquad(rng *rand.Rand, names []string, profiles []*profiler.Profile, sq, k int) (*Squad, []float64) {
	s := &Squad{}
	quotas := make([]float64, k)
	left := 1.0
	for i := 0; i < k; i++ {
		quotas[i] = left * (0.2 + 0.6*rng.Float64()) / float64(k-i)
		if sq%2 == 1 && i == k-1 {
			quotas[i] = left
		}
		left -= quotas[i]
		a := (sq + i) % len(names)
		app := model.MustGet(names[a])
		c := &sharing.Client{ID: i, App: app, Profile: profiles[a], Quota: quotas[i]}
		nk := app.NumKernels()
		start := rng.Intn(nk)
		ks := make([]int, 1+rng.Intn(min(nk-start, 40)))
		for j := range ks {
			ks[j] = start + j
		}
		s.Entries = append(s.Entries, SquadEntry{Client: c, Request: &sharing.Request{Client: c}, Kernels: ks})
	}
	return s, quotas
}
