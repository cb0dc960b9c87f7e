package core

import (
	"bless/internal/sim"
)

// The execution configuration determiner (§4.4): for a generated kernel
// squad, search the configuration space — the unrestricted case plus the
// C(N-1, K-1) strict spatial splits of N SM partitions over K active
// requests — and pick the configuration with the smallest estimated duration.
// On an A100 split into N=18 partitions with 2 active requests the space has
// 18 configurations.

// ExecConfig is the determiner's decision for one squad.
type ExecConfig struct {
	// Spatial selects strict spatial partitioning (with the Semi-SP tail
	// handled by the kernel manager); false means no SM restriction.
	Spatial bool
	// SMs is the per-entry SM grant when Spatial; nil otherwise.
	SMs []int
	// Estimate is the predicted squad duration for the chosen
	// configuration.
	Estimate sim.Time
	// Considered counts evaluated configurations (for overhead accounting
	// and the §6.9 scheduling-cost reproduction).
	Considered int
}

// maxEnumerate bounds exhaustive composition enumeration by entry count;
// squads with more entries use quota-seeded hill climbing (3 entries over 18
// partitions: C(17,2)=136 configurations).
const maxEnumerate = 3

// DetermineOptions tunes the configuration search.
type DetermineOptions struct {
	// Partitions is N, the SM partition count (default 18 to match the
	// profiles).
	Partitions int
	// ForceSpatialQuota disables the search (the Fig 20 ablation "w/o
	// configuration determiner"): the squad always runs strictly spatially
	// partitioned proportional to client quotas.
	ForceSpatialQuota bool
	// InterferenceBeta is the offline-calibrated co-residency interference
	// coefficient applied inside the workload-equivalence predictor (0 =
	// pure Equation 2).
	InterferenceBeta float64
	// QuotaGuard adds a quota-pace feasibility filter: prefer
	// configurations under which every entry's estimated stack stays within
	// the time that portion would take at the client's provisioned quota,
	// falling back to the unconstrained optimum when nothing is feasible.
	// Off by default: minimizing squad duration and compensating lagging
	// requests across squads (§4.3.2) measures better than constraining
	// each squad — the guard trades throughput for per-squad pacing and is
	// kept as an ablation knob.
	QuotaGuard bool
}

// Determine searches the execution configuration space for the squad.
// deviceSMs is the device SM count; quotas provide the per-entry provisioned
// fraction (used for the ablation and as the hill-climb seed).
func Determine(s *Squad, deviceSMs int, quotas []float64, opts DetermineOptions) ExecConfig {
	n := opts.Partitions
	if n <= 0 {
		n = 18
	}
	k := len(s.Entries)

	if opts.ForceSpatialQuota {
		sms := quotaSplit(deviceSMs, n, quotas)
		return ExecConfig{
			Spatial:    true,
			SMs:        sms,
			Estimate:   EstimateSpatial(s, sms),
			Considered: 1,
		}
	}

	// A single-entry squad always runs unrestricted: the lone request may
	// use the whole GPU (the bubble-squeezing property of §1).
	if k == 1 {
		return ExecConfig{
			Spatial:    false,
			Estimate:   EstimateUnrestricted(s, deviceSMs, opts.InterferenceBeta),
			Considered: 1,
		}
	}

	nsp := EstimateUnrestricted(s, deviceSMs, opts.InterferenceBeta)
	considered := 1

	// Per-entry quota-pace budgets: the time each entry's kernel run would
	// take at its client's provisioned quota. A configuration is
	// pace-feasible when no entry's estimated stack exceeds its budget
	// (small slack absorbs partition rounding), so accepting it can never
	// push a client behind the isolated-quota timeline. Only computed when
	// the guard is on — the default path never reads them.
	var budgets []sim.Time
	var minBudget sim.Time = 1 << 62
	if opts.QuotaGuard {
		budgets = make([]sim.Time, k)
		for i := range s.Entries {
			e := &s.Entries[i]
			b := entryStack(e, e.Client.QuotaSMs(deviceSMs))
			budgets[i] = b + b/50
			if budgets[i] < minBudget {
				minBudget = budgets[i]
			}
		}
	}

	// Candidate tracking reuses three fixed slices, cut from one allocation:
	// a scratch split mutated per evaluation, and copy-on-improvement
	// buffers for the two bests. The search visits O(n^k) compositions, so
	// per-candidate allocation dominated the scheduler's hot path otherwise.
	//
	// Every candidate gives each entry p >= 1 of the n partitions, at most
	// m = n-k+1, so entry i's Equation 1 stack is summed at most once per p,
	// on first use, into stacks[i*m+p-1], and a candidate costs k table reads
	// instead of k stack sums (a 3-entry squad evaluates 136 splits but only
	// 3x16 distinct stacks; the hill climb touches a few p per entry).
	// Stacks are integer sums of non-negative durations: a read is exactly
	// the sum it replaces, and -1 marks an unfilled slot. The table fits in
	// tableBuf, on the stack, whenever k*m <= 96 (every k at n = 18).
	ints := make([]int, 3*k)
	scratch, bestAnySMs, bestFeasibleSMs := ints[:k:k], ints[k:2*k:2*k], ints[2*k:]
	m := max(n-k+1, 0)
	var tableBuf [96]sim.Time
	stacks := tableBuf[:0]
	if k*m > len(tableBuf) {
		stacks = make([]sim.Time, 0, k*m)
	}
	for range k * m {
		stacks = append(stacks, -1)
	}
	var bestAnyEst, bestFeasibleEst sim.Time
	haveAny, haveFeasible := false, false
	evaluate := func(parts []int) sim.Time {
		var est sim.Time
		feasible := true
		for i, p := range parts {
			scratch[i] = deviceSMs * p / n
			stack := &stacks[i*m+p-1]
			if *stack < 0 {
				*stack = entryStack(&s.Entries[i], scratch[i])
			}
			if *stack > est {
				est = *stack
			}
			if opts.QuotaGuard && *stack > budgets[i] {
				feasible = false
			}
		}
		considered++
		if !haveAny || est < bestAnyEst {
			haveAny, bestAnyEst = true, est
			copy(bestAnySMs, scratch)
		}
		if feasible && (!haveFeasible || est < bestFeasibleEst) {
			haveFeasible, bestFeasibleEst = true, est
			copy(bestFeasibleSMs, scratch)
		}
		return est
	}

	if k <= maxEnumerate && k <= n {
		enumerateCompositions(n, k, evaluate)
	} else if k <= n {
		hillClimb(n, k, quotas, evaluate)
	}
	// else: more entries than partitions — spatial split impossible, NSP only.

	// The unrestricted case is pace-feasible when the whole squad finishes
	// within every entry's budget.
	nspFeasible := !opts.QuotaGuard || nsp <= minBudget

	// Prefer the fastest pace-feasible configuration; fall back to the
	// unconstrained optimum when nothing is feasible.
	spatialSMs, spatialEst, haveSpatial := bestFeasibleSMs, bestFeasibleEst, haveFeasible
	if !haveFeasible && !nspFeasible {
		spatialSMs, spatialEst, haveSpatial = bestAnySMs, bestAnyEst, haveAny
	}
	switch {
	case haveSpatial && nspFeasible == haveFeasible:
		// Both sides have equal feasibility standing: pick by estimate.
		if spatialEst < nsp {
			return ExecConfig{Spatial: true, SMs: spatialSMs, Estimate: spatialEst, Considered: considered}
		}
		return ExecConfig{Spatial: false, Estimate: nsp, Considered: considered}
	case haveSpatial && haveFeasible:
		// Only the spatial side is feasible.
		return ExecConfig{Spatial: true, SMs: spatialSMs, Estimate: spatialEst, Considered: considered}
	case haveSpatial && !nspFeasible:
		// Nothing is feasible: unconstrained optimum.
		if spatialEst < nsp {
			return ExecConfig{Spatial: true, SMs: spatialSMs, Estimate: spatialEst, Considered: considered}
		}
		return ExecConfig{Spatial: false, Estimate: nsp, Considered: considered}
	default:
		return ExecConfig{Spatial: false, Estimate: nsp, Considered: considered}
	}
}

// quotaSplit converts quotas into a partition-aligned SM split covering the
// device.
func quotaSplit(deviceSMs, n int, quotas []float64) []int {
	k := len(quotas)
	parts := make([]int, k)
	left := n
	for i, q := range quotas {
		p := int(q*float64(n) + 0.5)
		if p < 1 {
			p = 1
		}
		if p > left-(k-1-i) {
			p = left - (k - 1 - i)
		}
		parts[i] = p
		left -= p
	}
	// Give any slack to the largest-quota entry.
	if left > 0 {
		maxI := 0
		for i := 1; i < k; i++ {
			if quotas[i] > quotas[maxI] {
				maxI = i
			}
		}
		parts[maxI] += left
	}
	sms := make([]int, k)
	for i, p := range parts {
		sms[i] = deviceSMs * p / n
	}
	return sms
}

// enumerateCompositions visits every composition of n into k positive parts.
func enumerateCompositions(n, k int, visit func(parts []int) sim.Time) {
	parts := make([]int, k)
	var rec func(idx, left int)
	rec = func(idx, left int) {
		if idx == k-1 {
			parts[idx] = left
			visit(parts)
			return
		}
		// Reserve at least 1 partition for each remaining entry.
		for p := 1; p <= left-(k-1-idx); p++ {
			parts[idx] = p
			rec(idx+1, left-p)
		}
	}
	if n >= k {
		rec(0, n)
	}
}

// hillClimb starts from the quota-proportional composition and greedily moves
// one partition unit between entry pairs while the estimate improves. The
// search is deterministic and evaluates O(k^2) configurations per step.
func hillClimb(n, k int, quotas []float64, evaluate func(parts []int) sim.Time) {
	parts := make([]int, k)
	left := n
	for i := 0; i < k; i++ {
		q := 1.0 / float64(k)
		if i < len(quotas) {
			q = quotas[i]
		}
		p := int(q*float64(n) + 0.5)
		if p < 1 {
			p = 1
		}
		if p > left-(k-1-i) {
			p = left - (k - 1 - i)
		}
		parts[i] = p
		left -= p
	}
	if left > 0 {
		parts[k-1] += left
	}
	best := append([]int(nil), parts...)
	bestEst := evaluate(parts)

	// One candidate buffer serves the whole search: evaluate copies the
	// split out before estimating, so the buffer can be rewritten per
	// neighbor. A fresh slice per candidate was the fleet run's largest
	// allocation site.
	cand := make([]int, k)
	for iter := 0; iter < 4*n; iter++ {
		improved := false
		for from := 0; from < k && !improved; from++ {
			if best[from] <= 1 {
				continue
			}
			for to := 0; to < k && !improved; to++ {
				if to == from {
					continue
				}
				copy(cand, best)
				cand[from]--
				cand[to]++
				if est := evaluate(cand); est < bestEst {
					best, cand = cand, best
					bestEst = est
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
}
