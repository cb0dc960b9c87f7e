package harness

import (
	"fmt"

	"bless/internal/chaos"
	"bless/internal/core"
	"bless/internal/fleet"
	"bless/internal/invariant"
	"bless/internal/metrics"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sim"
)

// Fleet scenarios: the harness front-end to the internal/fleet control
// plane. A FleetScenario is declarative — pool, tenants, workload, planned
// migrations, device crashes, autoscaling — and RunFleet drives it as one
// deterministic virtual-time simulation, with the fleet invariant checker
// attached and the timing-free completion digest computed for cross-mode
// comparison (serial vs parallel workers, permuted migration order).

// FleetMigration schedules one explicit migration trigger.
type FleetMigration struct {
	At     sim.Time
	Tenant string
	Target int
}

// FleetScenario is a declarative fleet run.
type FleetScenario struct {
	// Seed keys the control plane's deterministic decisions.
	Seed int64
	// Devices is the initial heterogeneous pool.
	Devices []fleet.DeviceSpec
	// Tenants are admitted in order at t=0.
	Tenants []fleet.TenantSpec
	// Horizon bounds new work; the run then drains.
	Horizon sim.Time
	// Policy selects the routing policy (default least-loaded).
	Policy fleet.Policy
	// Runtime tunes every device's BLESS runtime.
	Runtime core.Options
	// Rebalance/Autoscale enable the control loop (see fleet package).
	Rebalance *fleet.RebalanceConfig
	Autoscale *fleet.AutoscaleConfig
	// Migrations are explicit migration triggers.
	Migrations []FleetMigration
	// DeviceCrashes kill pool devices mid-run (chaos schedule).
	DeviceCrashes []chaos.DeviceEvent
	// Shards is the engine-shard count (0 or 1 = single shard). Every
	// count runs the same coordinator/exchange path and produces
	// bit-identical digests; N > 1 runs device windows across N goroutines.
	Shards int
	// ShardOf optionally overrides the device→shard mapping — execution
	// strategy only, so permuting it cannot move a digest (the metamorphic
	// suite asserts exactly that). Snapshots drop it.
	ShardOf func(device int) int `json:"-"`
	// ExchangeLatency overrides the cross-device handoff latency ε (0 =
	// fleet.DefaultExchangeLatency).
	ExchangeLatency sim.Time
	// Faults, when set, attaches a seeded per-device kernel/context fault
	// injector to every device runtime. Unlike a raw Runtime.Injector it is
	// declarative, so scenarios carrying it snapshot and replay exactly —
	// including barriers cut mid-fault-retry with backoff timers pending.
	Faults *FleetFaultPlan
	// Invariants attaches the fleet invariant checker.
	Invariants bool
	// Repro tags invariant violations with a reproduction command.
	Repro string
}

// FleetFaultPlan is a declarative fleet-wide fault spec: each device gets
// its own chaos.Injector compiled from these rates under a device-derived
// seed, so fault decisions are pure in (seed, device, client, seq, kernel,
// attempt) and independent of the shard mapping.
type FleetFaultPlan struct {
	// Seed keys every hashed fault decision (device-mixed per injector).
	Seed int64
	// KernelFaultRate / MaxFaultsPerKernel / CtxFaultRate mirror chaos.Plan.
	KernelFaultRate    float64
	MaxFaultsPerKernel int
	CtxFaultRate       float64
}

// injectorFor builds the per-device injector factory for the plan.
func (p *FleetFaultPlan) injectorFor() func(device int) core.FaultInjector {
	plan := *p
	return func(device int) core.FaultInjector {
		return chaos.NewInjector(chaos.Plan{
			// splitmix-style device mix keeps per-device decision streams
			// decorrelated while staying pure in (Seed, device).
			Seed:               plan.Seed ^ int64(uint64(device+1)*0x9E3779B97F4A7C15),
			KernelFaultRate:    plan.KernelFaultRate,
			MaxFaultsPerKernel: plan.MaxFaultsPerKernel,
			CtxFaultRate:       plan.CtxFaultRate,
		})
	}
}

// FleetTenantOutcome is one tenant's result.
type FleetTenantOutcome struct {
	Name       string
	App        string
	Quota      float64
	Device     int // final host (-1 if evicted)
	Completed  int
	Failed     int
	MeanLat    sim.Time
	P99Lat     sim.Time
	Migrations int
	Evicted    bool
}

// FleetResult is a fleet run's outcome.
type FleetResult struct {
	Tenants []FleetTenantOutcome
	Devices []fleet.DeviceLoad
	Stats   fleet.Stats
	// Invariants is the fleet checker's report (nil unless requested).
	Invariants *invariant.FleetReport
	// Digest is the timing-free completion digest — identical across
	// execution modes for one scenario.
	Digest uint64
	// Elapsed is the final virtual time.
	Elapsed sim.Time
}

// FleetProfile adapts the harness's process-wide profile cache for the
// fleet control plane: profiles are keyed per (app, device SM class), so
// heterogeneous pools profile each class exactly once per process.
func FleetProfile(app string, cfg sim.Config) (*model.App, *profiler.Profile, error) {
	a, err := model.Get(app)
	if err != nil {
		return nil, nil, err
	}
	p, err := ProfileFor(app, cfg)
	if err != nil {
		return nil, nil, err
	}
	return a, p, nil
}

// RunFleet drives the scenario to completion and reports. Every run — any
// sc.Shards, including the default single shard — goes through the fleet's
// sharded coordinator, so the closed-loop workload, migration drains and
// crash recovery follow the same exchange semantics at every shard count
// and the digests are bit-identical across counts and shard mappings.
func RunFleet(sc FleetScenario) (*FleetResult, error) {
	f, checker, horizon, err := buildFleet(sc)
	if err != nil {
		return nil, err
	}
	if err := f.Run(horizon); err != nil {
		return nil, err
	}
	return fleetReport(f, checker), nil
}

// buildFleet assembles the scenario's fleet without running it: pool built,
// tenants admitted at t=0, migration and crash triggers armed. RunFleet
// drives the result to completion; the snapshot export/import paths drive it
// barrier by barrier.
func buildFleet(sc FleetScenario) (*fleet.Fleet, *invariant.FleetChecker, sim.Time, error) {
	if len(sc.Tenants) == 0 {
		return nil, nil, 0, fmt.Errorf("harness: fleet scenario has no tenants")
	}
	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = 100 * sim.Millisecond
	}
	var checker *invariant.FleetChecker
	if sc.Invariants {
		checker = invariant.NewFleetChecker(invariant.FleetOptions{Repro: sc.Repro})
	}

	var injectorFor func(device int) core.FaultInjector
	if sc.Faults != nil {
		injectorFor = sc.Faults.injectorFor()
	}
	f, err := fleet.New(fleet.Config{
		Seed:            sc.Seed,
		Devices:         sc.Devices,
		Runtime:         sc.Runtime,
		InjectorFor:     injectorFor,
		Policy:          sc.Policy,
		Profile:         FleetProfile,
		Checker:         checker,
		Rebalance:       sc.Rebalance,
		Autoscale:       sc.Autoscale,
		Shards:          sc.Shards,
		ShardOf:         sc.ShardOf,
		ExchangeLatency: sc.ExchangeLatency,
	})
	if err != nil {
		return nil, nil, 0, err
	}

	for _, t := range sc.Tenants {
		if err := f.Admit(t); err != nil {
			return nil, nil, 0, err
		}
	}
	for _, m := range sc.Migrations {
		f.ScheduleMigration(m.At, m.Tenant, m.Target)
	}
	for _, e := range sc.DeviceCrashes {
		f.ScheduleCrash(e.At, e.Device)
	}
	return f, checker, horizon, nil
}

// fleetReport assembles the result of a finished fleet run.
func fleetReport(f *fleet.Fleet, checker *invariant.FleetChecker) *FleetResult {
	res := &FleetResult{
		Devices: f.Snapshot().Devices,
		Stats:   f.Stats(),
		Digest:  f.CompletionDigest(),
		Elapsed: f.Elapsed(),
	}
	for _, tr := range f.Results() {
		sum := metrics.Summarize(tr.Latencies)
		res.Tenants = append(res.Tenants, FleetTenantOutcome{
			Name:       tr.Name,
			App:        tr.App,
			Quota:      tr.Quota,
			Device:     tr.Device,
			Completed:  tr.Completed,
			Failed:     tr.Failed,
			MeanLat:    sum.Mean,
			P99Lat:     sum.P99,
			Migrations: tr.Migrations,
			Evicted:    tr.Evicted,
		})
	}
	if checker != nil {
		res.Invariants = checker.Report(f.Elapsed())
	}
	return res
}
