package planner

import (
	"encoding/json"
	"fmt"
	"net/http"

	"bless/internal/chaos"
	"bless/internal/fleet"
	"bless/internal/harness"
	"bless/internal/sim"
)

// Fleet RPCs: the blessd front-end to the internal/fleet control plane.
//
//   - Planner.FleetRoute answers the pure placement question — which device
//     would each tenant land on, under a policy, with no simulation run.
//   - Planner.FleetPlan simulates a whole fleet scenario: heterogeneous
//     pool, load-aware routing, scheduled live migrations, device crashes,
//     rebalancing and autoscaling, with the fleet invariant checker
//     enforced and the determinism digest reported.
//   - Planner.FleetMigrate is FleetPlan specialized to migration what-ifs:
//     it requires at least one scheduled migration.
//
// The latest fleet state (device loads, placements, control-plane counters,
// digest) is served on GET /debug/bless/fleet.

// FleetDevice describes one pool device in a fleet request.
type FleetDevice struct {
	// Name labels the device (optional).
	Name string
	// SMs is the device's SM count — its speed class (default 108).
	SMs int
	// MemoryGB is the device memory (default 40).
	MemoryGB float64
}

func (d FleetDevice) spec() fleet.DeviceSpec {
	sms := d.SMs
	if sms <= 0 {
		sms = 108
	}
	mem := int64(d.MemoryGB * float64(1<<30))
	if mem <= 0 {
		mem = 40 << 30
	}
	return fleet.DeviceClass(d.Name, sms, mem)
}

// FleetTenantPlan describes one tenant in a fleet request.
type FleetTenantPlan struct {
	// Name uniquely identifies the tenant (defaults to "t<i>").
	Name string
	// App is a built-in application name (bless.Models).
	App string
	// Quota is the provisioned GPU fraction in (0, 1].
	Quota float64
	// SLOTargetMS optionally sets the pace/SLO target.
	SLOTargetMS float64
	// ThinkMS is the closed-loop think time (FleetPlan only).
	ThinkMS float64
	// Requests bounds the tenant's submissions (0 = until the horizon).
	Requests int
}

// FleetRouteRequest asks where a tenant set would be placed.
type FleetRouteRequest struct {
	Devices []FleetDevice
	Tenants []FleetTenantPlan
	// Policy is "least-loaded" (default), "quota-headroom" or
	// "slo-attainment".
	Policy string
}

// FleetAssignment is one tenant's routing decision.
type FleetAssignment struct {
	Tenant string
	Device int    // -1 when rejected
	Reason string // rejection reason, empty on success
}

// FleetRouteReply is the placement answer.
type FleetRouteReply struct {
	Assignments []FleetAssignment
	// Devices reports each device's resulting subscription.
	Devices []fleet.DeviceLoad
}

// FleetMigrationPlan schedules one live migration in a fleet plan.
type FleetMigrationPlan struct {
	AtMS   float64
	Tenant string
	Target int
}

// FleetCrashPlan schedules one device crash in a fleet plan.
type FleetCrashPlan struct {
	AtMS   float64
	Device int
}

// FleetPlanRequest describes a fleet scenario to simulate.
type FleetPlanRequest struct {
	Seed      int64
	Devices   []FleetDevice
	Tenants   []FleetTenantPlan
	HorizonMS float64 // default 100
	Policy    string
	// Migrations are explicit live-migration triggers.
	Migrations []FleetMigrationPlan
	// DeviceCrashes kill pool devices mid-run.
	DeviceCrashes []FleetCrashPlan
	// Rebalance enables the periodic rebalancer; Autoscale additionally
	// lets the pool grow/shrink (up to MaxDevices, default +4).
	Rebalance  bool
	Autoscale  bool
	MaxDevices int
}

// FleetTenantOutcome is one tenant's projection.
type FleetTenantOutcome struct {
	Name          string
	App           string
	Quota         float64
	Device        int
	Completed     int
	Failed        int
	MeanLatencyMS float64
	P99LatencyMS  float64
	Migrations    int
	Evicted       bool
}

// FleetPlanReply is the simulated fleet outcome.
type FleetPlanReply struct {
	Tenants []FleetTenantOutcome
	Devices []fleet.DeviceLoad
	Stats   fleet.Stats
	// Digest is the timing-free completion digest; bit-identical across
	// runs of one request.
	Digest string
	// Violations lists fleet invariant breaches (the plan fails on any).
	Violations []string
	ElapsedMS  float64
}

// FleetRoute forwards to Planner.FleetRoute.
func (s *PlanService) FleetRoute(req FleetRouteRequest, reply *FleetRouteReply) error {
	return s.p.FleetRoute(req, reply)
}

// FleetPlan forwards to Planner.FleetPlan.
func (s *PlanService) FleetPlan(req FleetPlanRequest, reply *FleetPlanReply) error {
	return s.p.FleetPlan(req, reply)
}

// FleetMigrate forwards to Planner.FleetMigrate.
func (s *PlanService) FleetMigrate(req FleetPlanRequest, reply *FleetPlanReply) error {
	return s.p.FleetMigrate(req, reply)
}

func fleetDevices(reqDevs []FleetDevice) ([]fleet.DeviceSpec, error) {
	if len(reqDevs) == 0 {
		return nil, fmt.Errorf("planner: fleet request has no devices")
	}
	specs := make([]fleet.DeviceSpec, len(reqDevs))
	for i, d := range reqDevs {
		specs[i] = d.spec()
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("gpu%d", i)
		}
	}
	return specs, nil
}

func fleetPolicy(s string) fleet.Policy {
	if s == "" {
		return fleet.PolicyLeastLoaded
	}
	return fleet.Policy(s)
}

// FleetRoute answers the placement-only question: tenants are admitted one
// by one against the live pool state (no workload simulated) and the
// resulting assignment and per-device subscription returned. A tenant no
// device fits is reported rejected, not an error.
func (p *Planner) FleetRoute(req FleetRouteRequest, reply *FleetRouteReply) error {
	specs, err := fleetDevices(req.Devices)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	f, err := fleet.New(fleet.Config{
		Devices: specs,
		Policy:  fleetPolicy(req.Policy),
		Profile: harness.FleetProfile,
	})
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	for i, t := range req.Tenants {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		a := FleetAssignment{Tenant: name, Device: -1}
		err := f.Admit(fleet.TenantSpec{
			Name: name, App: t.App, Quota: t.Quota,
			SLOTarget: ms(t.SLOTargetMS),
		})
		if err != nil {
			a.Reason = err.Error()
		} else {
			for _, tp := range f.Snapshot().Tenants {
				if tp.Name == name {
					a.Device = tp.Device
				}
			}
		}
		reply.Assignments = append(reply.Assignments, a)
	}
	reply.Devices = f.Snapshot().Devices
	p.reg.Counter("plans_total").Inc()
	p.reg.Counter("plans/fleet_route").Inc()
	return nil
}

// FleetPlan simulates the fleet scenario and fills the reply. The fleet
// invariant class is enforced: any violation fails the plan. The resulting
// fleet state lands on /debug/bless/fleet.
func (p *Planner) FleetPlan(req FleetPlanRequest, reply *FleetPlanReply) error {
	sc, err := fleetScenarioOf(req, "Planner.FleetPlan")
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	res, err := harness.RunFleet(sc)
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}
	p.reg.Counter("plans/fleet").Inc()
	return p.finishFleetPlan(res, reply)
}

// fleetScenarioOf converts a fleet plan request to the declarative harness
// scenario — shared by FleetPlan, FleetMigrate and the Snapshot RPC. The
// fleet invariant checker is always attached.
func fleetScenarioOf(req FleetPlanRequest, repro string) (harness.FleetScenario, error) {
	specs, err := fleetDevices(req.Devices)
	if err != nil {
		return harness.FleetScenario{}, err
	}
	if len(req.Tenants) == 0 {
		return harness.FleetScenario{}, fmt.Errorf("planner: fleet plan has no tenants")
	}
	horizon := ms(req.HorizonMS)
	if horizon <= 0 {
		horizon = 100 * sim.Millisecond
	}
	sc := harness.FleetScenario{
		Seed:       req.Seed,
		Devices:    specs,
		Horizon:    horizon,
		Policy:     fleetPolicy(req.Policy),
		Invariants: true,
		Repro:      repro,
	}
	for i, t := range req.Tenants {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		sc.Tenants = append(sc.Tenants, fleet.TenantSpec{
			Name: name, App: t.App, Quota: t.Quota,
			SLOTarget: ms(t.SLOTargetMS),
			Think:     ms(t.ThinkMS),
			Requests:  t.Requests,
		})
	}
	for _, m := range req.Migrations {
		sc.Migrations = append(sc.Migrations, harness.FleetMigration{
			At: ms(m.AtMS), Tenant: m.Tenant, Target: m.Target,
		})
	}
	for _, c := range req.DeviceCrashes {
		sc.DeviceCrashes = append(sc.DeviceCrashes, chaos.DeviceEvent{Device: c.Device, At: ms(c.AtMS)})
	}
	if req.Rebalance || req.Autoscale {
		sc.Rebalance = &fleet.RebalanceConfig{Interval: horizon / 8}
	}
	if req.Autoscale {
		maxDev := req.MaxDevices
		if maxDev <= 0 {
			maxDev = len(specs) + 4
		}
		sc.Autoscale = &fleet.AutoscaleConfig{
			Template: fleet.DeviceClass("gpu", 108, 40<<30),
			Min:      len(specs),
			Max:      maxDev,
		}
	}
	return sc, nil
}

// finishFleetPlan fills the reply from a finished fleet run, publishes the
// state on /debug/bless/fleet, and fails on any invariant violation — the
// shared tail of FleetPlan and Restore.
func (p *Planner) finishFleetPlan(res *harness.FleetResult, reply *FleetPlanReply) error {
	if res.Invariants != nil {
		for _, v := range res.Invariants.Violations {
			reply.Violations = append(reply.Violations, v.Error())
		}
	}
	reply.Stats = res.Stats
	reply.Devices = res.Devices
	reply.Digest = fmt.Sprintf("%016x", res.Digest)
	reply.ElapsedMS = float64(res.Elapsed) / float64(sim.Millisecond)
	for _, t := range res.Tenants {
		reply.Tenants = append(reply.Tenants, FleetTenantOutcome{
			Name:          t.Name,
			App:           t.App,
			Quota:         t.Quota,
			Device:        t.Device,
			Completed:     t.Completed,
			Failed:        t.Failed,
			MeanLatencyMS: float64(t.MeanLat) / float64(sim.Millisecond),
			P99LatencyMS:  float64(t.P99Lat) / float64(sim.Millisecond),
			Migrations:    t.Migrations,
			Evicted:       t.Evicted,
		})
	}

	var events int64
	if res.Invariants != nil {
		events = res.Invariants.Events
	}
	p.mu.Lock()
	p.lastFleet = &fleetState{
		Devices: res.Devices,
		Tenants: reply.Tenants,
		Stats:   res.Stats,
		Digest:  reply.Digest,
		Events:  events,
	}
	p.mu.Unlock()
	p.reg.Counter("plans_total").Inc()
	if len(reply.Violations) > 0 {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: fleet invariants violated: %s", reply.Violations[0])
	}
	return nil
}

// FleetMigrate is the migration what-if RPC: FleetPlan that requires at
// least one scheduled migration.
func (p *Planner) FleetMigrate(req FleetPlanRequest, reply *FleetPlanReply) error {
	if len(req.Migrations) == 0 {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: FleetMigrate needs at least one migration (use FleetPlan otherwise)")
	}
	return p.FleetPlan(req, reply)
}

// fleetState is what /debug/bless/fleet serves.
type fleetState struct {
	Devices []fleet.DeviceLoad   `json:"devices"`
	Tenants []FleetTenantOutcome `json:"tenants"`
	Stats   fleet.Stats          `json:"stats"`
	Digest  string               `json:"digest"`
	Events  int64                `json:"invariant_events"`
}

// ServeFleet handles GET /debug/bless/fleet: the most recent fleet plan's
// state — per-device load (subscription, in-flight, SLO attainment,
// utilization), tenant placements with migration counts, control-plane
// counters and the determinism digest — as JSON. 404 until a fleet plan has
// run.
func (p *Planner) ServeFleet(w http.ResponseWriter, _ *http.Request) {
	p.mu.Lock()
	st := p.lastFleet
	p.mu.Unlock()
	if st == nil {
		http.Error(w, "no fleet plan yet; call Planner.FleetPlan first", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
