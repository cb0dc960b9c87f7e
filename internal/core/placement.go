package core

import (
	"fmt"

	"bless/internal/profiler"
	"bless/internal/sim"
)

// Multi-GPU placement (§4.2.2): when applications must be coordinated across
// several GPUs (as in GPUlet-style serving clusters), BLESS replicates its
// runtime per GPU and a central controller decides which GPU hosts which
// application, using the offline profiles' memory requirements and kernel
// statistics to avoid conflicts.

// PlacementApp is one application awaiting placement.
type PlacementApp struct {
	// Name identifies the application.
	Name string
	// Profile is the offline profile (memory footprint, kernel statistics).
	Profile *profiler.Profile
	// Quota is the GPU fraction the application needs on its host GPU.
	Quota float64
}

// PlacementGPU describes one target device.
type PlacementGPU struct {
	// ID names the device.
	ID string
	// Config is the device configuration (memory capacity, SMs).
	Config sim.Config
}

// Placement maps application index -> GPU index.
type Placement map[int]int

// Place assigns each application to a GPU such that (a) per-GPU quotas sum to
// at most 1, (b) combined memory footprints (plus per-client MPS contexts)
// fit the device, and (c) the §4.2.2 kernel-duration compatibility checks
// under profiler.DefaultAdmissionLimits hold on every GPU. Applications are
// placed largest-memory-first onto the GPU with the most remaining memory
// (best-fit-decreasing); the search backtracks across eligible GPUs before
// failing.
func Place(apps []PlacementApp, gpus []PlacementGPU) (Placement, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("core: no applications to place")
	}
	if len(gpus) == 0 {
		return nil, fmt.Errorf("core: no GPUs available")
	}
	lim := profiler.DefaultAdmissionLimits()
	for _, a := range apps {
		if a.Profile == nil {
			return nil, fmt.Errorf("core: application %q has no profile", a.Name)
		}
		if a.Quota <= 0 || a.Quota > 1 {
			return nil, fmt.Errorf("core: application %q quota %g outside (0,1]", a.Name, a.Quota)
		}
	}

	// Aggregate capacity fast-fail: when the pool as a whole cannot hold
	// the tenant set, no assignment can succeed, and the backtracking
	// search below would prove that by exhausting an exponential tree one
	// rejection at a time. Both bounds are conservative (quota slack
	// matches the per-GPU check; context cost uses the cheapest device), so
	// a feasible placement is never rejected here — this only converts
	// silent exponential failure into an immediate, explicit error.
	var quotaSum float64
	var memNeed, memPool int64
	minCtx := gpus[0].Config.ContextMemBytes
	for _, g := range gpus {
		memPool += g.Config.MemoryBytes
		if g.Config.ContextMemBytes < minCtx {
			minCtx = g.Config.ContextMemBytes
		}
	}
	for _, a := range apps {
		quotaSum += a.Quota
		memNeed += a.Profile.MemoryBytes + int64(lim.ContextsPerClient)*minCtx
	}
	if quotaSum > float64(len(gpus))*1.0001 {
		return nil, fmt.Errorf("core: aggregate quota %.3f over-commits the pool (%d GPUs hold at most %d.0)",
			quotaSum, len(gpus), len(gpus))
	}
	if memNeed > memPool {
		return nil, fmt.Errorf("core: aggregate memory footprint %d bytes exceeds pool capacity %d bytes",
			memNeed, memPool)
	}

	// Largest memory footprint first. The index sorts run over buffers
	// allocated once per call and a stable insertion sort — identical order
	// to the sort.SliceStable formulation this replaces, without its
	// reflection and per-comparison closure costs.
	order := make([]int, len(apps))
	memKey := make([]int64, len(apps))
	for i := range order {
		order[i] = i
		memKey[i] = apps[i].Profile.MemoryBytes
	}
	sortIdxByKeyDesc(order, memKey)

	assigned := make([][]int, len(gpus)) // app indices per GPU
	placement := Placement{}
	// Per-depth candidate scratch: the recursion in place() nests inside the
	// candidate loop, so each depth owns a fixed slice of the shared buffers.
	candBuf := make([]int, len(order)*len(gpus))
	freeBuf := make([]int64, len(order)*len(gpus))

	var place func(step int) error
	place = func(step int) error {
		if step == len(order) {
			return nil
		}
		ai := order[step]
		app := apps[ai]

		// Try GPUs with the most free memory first. Free memory is computed
		// once per GPU per step (the comparison-driven sort recomputed it per
		// comparison), which cannot change the order: it is deterministic in
		// the current assignment.
		cand := candBuf[step*len(gpus) : (step+1)*len(gpus)]
		free := freeBuf[step*len(gpus) : (step+1)*len(gpus)]
		for i := range cand {
			cand[i] = i
			free[i] = freeMemory(gpus[i], apps, assigned[i], lim)
		}
		sortIdxByKeyDesc(cand, free)

		var lastErr error
		for _, gi := range cand {
			if err := fits(gpus[gi], apps, assigned[gi], ai, lim); err != nil {
				lastErr = err
				continue
			}
			assigned[gi] = append(assigned[gi], ai)
			placement[ai] = gi
			if err := place(step + 1); err == nil {
				return nil
			} else {
				lastErr = err
			}
			assigned[gi] = assigned[gi][:len(assigned[gi])-1]
			delete(placement, ai)
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("core: no GPU fits application %q", app.Name)
		}
		return fmt.Errorf("core: placing %q: %w", app.Name, lastErr)
	}
	if err := place(0); err != nil {
		return nil, err
	}
	return placement, nil
}

// sortIdxByKeyDesc stable-sorts idx in place so that key[idx[i]] descends,
// preserving original order among equal keys (elements move only on a strict
// comparison) — the same order sort.SliceStable with a ">" less-func yields.
func sortIdxByKeyDesc(idx []int, key []int64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && key[idx[j]] < key[v] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

// fits checks whether adding app ai to the GPU's current assignment keeps the
// deployment admissible.
func fits(gpu PlacementGPU, apps []PlacementApp, current []int, ai int, lim profiler.AdmissionLimits) error {
	quota := apps[ai].Quota
	profiles := []*profiler.Profile{apps[ai].Profile}
	for _, ci := range current {
		quota += apps[ci].Quota
		profiles = append(profiles, apps[ci].Profile)
	}
	if quota > 1.0001 {
		return fmt.Errorf("quota sum %.3f exceeds GPU %s", quota, gpu.ID)
	}
	return profiler.CheckColocation(profiles, gpu.Config, lim)
}

// freeMemory estimates the GPU's remaining memory under its current
// assignment.
func freeMemory(gpu PlacementGPU, apps []PlacementApp, current []int, lim profiler.AdmissionLimits) int64 {
	free := gpu.Config.MemoryBytes
	for _, ci := range current {
		free -= apps[ci].Profile.MemoryBytes
		free -= int64(lim.ContextsPerClient) * gpu.Config.ContextMemBytes
	}
	return free
}
