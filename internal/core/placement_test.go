package core

import (
	"strings"
	"testing"

	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sim"
)

func placementApps(t *testing.T, specs ...struct {
	name  string
	quota float64
}) []PlacementApp {
	t.Helper()
	out := make([]PlacementApp, len(specs))
	for i, s := range specs {
		p, err := profiler.ProfileApp(model.MustGet(s.name), profiler.Options{Partitions: 6})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = PlacementApp{Name: s.name, Profile: p, Quota: s.quota}
	}
	return out
}

func app(name string, quota float64) struct {
	name  string
	quota float64
} {
	return struct {
		name  string
		quota float64
	}{name, quota}
}

func twoGPUs() []PlacementGPU {
	return []PlacementGPU{
		{ID: "gpu0", Config: sim.DefaultConfig()},
		{ID: "gpu1", Config: sim.DefaultConfig()},
	}
}

func TestPlaceSpreadsByQuota(t *testing.T) {
	apps := placementApps(t,
		app("vgg11", 0.6), app("resnet50", 0.6),
		app("bert", 0.4), app("resnet101", 0.4),
	)
	pl, err := Place(apps, twoGPUs())
	if err != nil {
		t.Fatal(err)
	}
	// Quotas per GPU must not exceed 1: the 0.6s must land apart.
	sums := map[int]float64{}
	for ai, gi := range pl {
		sums[gi] += apps[ai].Quota
	}
	for gi, s := range sums {
		if s > 1.0001 {
			t.Errorf("gpu %d oversubscribed: quota sum %.2f", gi, s)
		}
	}
	if len(pl) != len(apps) {
		t.Errorf("placed %d of %d apps", len(pl), len(apps))
	}
}

func TestPlaceRespectsMemory(t *testing.T) {
	// Training apps are memory-hungry (4-12 GB); a 10 GB device holds few.
	apps := placementApps(t,
		app("resnet101-train", 0.5), app("resnet50-train", 0.5),
		app("vgg11-train", 0.5),
	)
	small := sim.DefaultConfig()
	small.MemoryBytes = 12 << 30
	gpus := []PlacementGPU{
		{ID: "a", Config: small},
		{ID: "b", Config: small},
		{ID: "c", Config: small},
	}
	pl, err := Place(apps, gpus)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int64{}
	for ai, gi := range pl {
		used[gi] += apps[ai].Profile.MemoryBytes
	}
	for gi, u := range used {
		if u > small.MemoryBytes {
			t.Errorf("gpu %d memory oversubscribed: %d bytes", gi, u)
		}
	}
}

func TestPlaceFailsWhenImpossible(t *testing.T) {
	apps := placementApps(t, app("vgg11", 0.8), app("resnet50", 0.8))
	one := []PlacementGPU{{ID: "only", Config: sim.DefaultConfig()}}
	if _, err := Place(apps, one); err == nil {
		t.Error("1.6 total quota on one GPU accepted")
	}
}

func TestPlaceBacktracks(t *testing.T) {
	// Three 0.5-quota apps on two GPUs: naive best-fit might pair wrongly;
	// any valid assignment puts two on one device and one on the other.
	apps := placementApps(t, app("vgg11", 0.5), app("resnet50", 0.5), app("bert", 0.5))
	pl, err := Place(apps, twoGPUs())
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, gi := range pl {
		count[gi]++
	}
	for gi, n := range count {
		if n > 2 {
			t.Errorf("gpu %d hosts %d 0.5-quota apps", gi, n)
		}
	}
}

func TestPlaceRejectsStarvationPairs(t *testing.T) {
	big := model.Synthetic("monster", 4, 2500*sim.Microsecond, 108, 0.3, 1)
	small := model.Synthetic("tiny", 50, 5*sim.Microsecond, 108, 0.3, 2)
	pb, err := profiler.ProfileApp(big, profiler.Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := profiler.ProfileApp(small, profiler.Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	apps := []PlacementApp{
		{Name: "monster", Profile: pb, Quota: 0.5},
		{Name: "tiny", Profile: ps, Quota: 0.5},
	}
	// One GPU: the starvation-prone pair must be rejected.
	one := []PlacementGPU{{ID: "only", Config: sim.DefaultConfig()}}
	if _, err := Place(apps, one); err == nil {
		t.Error("starvation-prone co-location accepted on a single GPU")
	}
	// Two GPUs: the controller must separate them.
	pl, err := Place(apps, twoGPUs())
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] == pl[1] {
		t.Error("starvation-prone pair placed on the same GPU despite alternatives")
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := Place(nil, twoGPUs()); err == nil {
		t.Error("empty app list accepted")
	}
	apps := placementApps(t, app("vgg11", 0.5))
	if _, err := Place(apps, nil); err == nil {
		t.Error("empty GPU list accepted")
	}
	apps[0].Quota = 0
	if _, err := Place(apps, twoGPUs()); err == nil {
		t.Error("zero quota accepted")
	}
	apps[0].Quota = 0.5
	apps[0].Profile = nil
	if _, err := Place(apps, twoGPUs()); err == nil {
		t.Error("profile-less app accepted")
	}
}

func TestPlaceErrorNamesApp(t *testing.T) {
	// 1.8 aggregate quota fits a 2-GPU pool, but no pair of 0.6s can share
	// a device with a third: the search must fail naming an application
	// (the aggregate fast-fail doesn't trigger — per-device packing does).
	apps := placementApps(t, app("vgg11", 0.6), app("resnet50", 0.6), app("bert", 0.6))
	two := []PlacementGPU{
		{ID: "a", Config: sim.DefaultConfig()},
		{ID: "b", Config: sim.DefaultConfig()},
	}
	// Shrink quota headroom so any two of them over-subscribe one device.
	apps[0].Quota, apps[1].Quota, apps[2].Quota = 0.7, 0.7, 0.6
	_, err := Place(apps, two)
	if err == nil || !strings.Contains(err.Error(), "placing") {
		t.Errorf("error %v does not identify the failing application", err)
	}
}

// TestPlaceRejectsAggregateOvercommit pins the aggregate fast-fail: a
// tenant set whose total quota (or memory) exceeds the whole pool must be
// rejected immediately with an explicit pool-level error, not silently
// over-packed and not proven infeasible one backtrack at a time.
func TestPlaceRejectsAggregateOvercommit(t *testing.T) {
	// 2.4 total quota on a 2-GPU pool: over-committed in aggregate.
	apps := placementApps(t,
		app("vgg11", 0.8), app("resnet50", 0.8), app("bert", 0.8),
	)
	_, err := Place(apps, twoGPUs())
	if err == nil {
		t.Fatal("aggregate quota over-commit accepted")
	}
	if !strings.Contains(err.Error(), "aggregate quota") {
		t.Errorf("want pool-level quota error, got: %v", err)
	}

	// Aggregate memory over-commit: three training apps on tiny devices.
	apps = placementApps(t,
		app("resnet101-train", 0.3), app("resnet50-train", 0.3),
		app("vgg11-train", 0.3),
	)
	tiny := sim.DefaultConfig()
	tiny.MemoryBytes = 4 << 30
	gpus := []PlacementGPU{{ID: "a", Config: tiny}, {ID: "b", Config: tiny}}
	_, err = Place(apps, gpus)
	if err == nil {
		t.Fatal("aggregate memory over-commit accepted")
	}
	if !strings.Contains(err.Error(), "aggregate memory") {
		t.Errorf("want pool-level memory error, got: %v", err)
	}

	// The pre-check must stay conservative: a feasible spread (0.6+0.6+0.4
	// over two GPUs) still places.
	apps = placementApps(t, app("vgg11", 0.6), app("resnet50", 0.6), app("bert", 0.4))
	if _, err := Place(apps, twoGPUs()); err != nil {
		t.Errorf("feasible deployment rejected by the aggregate pre-check: %v", err)
	}
}
