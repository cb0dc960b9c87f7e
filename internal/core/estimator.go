package core

import (
	"bless/internal/sim"
)

// Kernel-squad performance estimators (§4.4.2). Both consume only offline
// profile data (t[n%][k] on the partition grid, plus each kernel's maximum
// active SM share d%), so they run in microseconds at squad granularity.
//
// Memory-management kernels (H2D/D2H copies) are summed into the total for
// every configuration, whether or not they actually overlap at runtime; the
// paper notes this uniform extension rarely changes which configuration wins.

// EstimateSpatial is the interference-free predictor (Equation 1): with the
// squad's clients strictly spatially isolated on smAlloc[i] SMs each, the
// squad duration is the longest per-client stack of kernel durations:
//
//	t = max_j sum_i t[n_j%][k_i^j]
//
// smAlloc must have one entry per squad entry.
func EstimateSpatial(s *Squad, smAlloc []int) sim.Time {
	var worst sim.Time
	for i := range s.Entries {
		if stack := entryStack(&s.Entries[i], smAlloc[i]); stack > worst {
			worst = stack
		}
	}
	return worst
}

// entryStack is one entry's term of Equation 1: the sum of its kernels'
// profiled durations on sms SMs.
func entryStack(e *SquadEntry, sms int) sim.Time {
	var stack sim.Time
	for _, k := range e.Kernels {
		stack += e.Client.Profile.KernelDurAt(k, sms)
	}
	return stack
}

// EstimateUnrestricted is the workload-equivalence predictor (Equation 2):
// with no spatial restriction, kernels that would overlap (the i-th kernel of
// each client, breadth-first — Volta+ hardware schedules equal-priority
// queues fairly) are modeled as executing sequentially with each kernel
// occupying all the SMs the overlapped group activates together:
//
//	t = sum_i sum_j t[ sum_j d_i^j% ][k_i^j]
//
// Durations at SM counts a kernel cannot reach are interpolated (clamped) by
// the profile.
//
// beta augments the formula with the offline-calibrated co-residency
// interference coefficient (the paper's Fig 9 measurement): when a round's
// combined raw SM demand oversubscribes the device, the round is stretched by
// 1 + beta x oversubscription, capped at 2x. Pass 0 for the pure Equation 2.
func EstimateUnrestricted(s *Squad, deviceSMs int, beta float64) sim.Time {
	q := 0
	for i := range s.Entries {
		if n := len(s.Entries[i].Kernels); n > q {
			q = n
		}
	}
	var total sim.Time
	for round := 0; round < q; round++ {
		// Combined active SMs of this round's overlapped group.
		raw := 0
		for i := range s.Entries {
			e := &s.Entries[i]
			if round >= len(e.Kernels) {
				continue
			}
			kp := &e.Client.Profile.Kernels[e.Kernels[round]]
			if kp.IsCompute {
				raw += kp.MaxSMs
			}
		}
		combined := raw
		if combined > deviceSMs {
			combined = deviceSMs
		}
		if combined < 1 {
			combined = 1
		}
		stretch := 1.0
		if beta > 0 && raw > deviceSMs {
			stretch = 1 + beta*float64(raw-deviceSMs)/float64(deviceSMs)
			if stretch > 2 {
				stretch = 2
			}
		}
		for i := range s.Entries {
			e := &s.Entries[i]
			if round >= len(e.Kernels) {
				continue
			}
			d := e.Client.Profile.KernelDurAtUnbounded(e.Kernels[round], combined)
			total += sim.Time(float64(d) * stretch)
		}
	}
	return total
}
