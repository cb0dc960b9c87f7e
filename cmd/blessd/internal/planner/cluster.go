package planner

import (
	"fmt"

	"bless/internal/fleet"
	"bless/internal/harness"
	"bless/internal/metrics"
	"bless/internal/obs"
	"bless/internal/sim"
)

// planCluster is the multi-device plan path (PlanRequest.GPUs > 1): the
// deployment is placed jointly across a GPU pool by the §4.2.2 controller
// (fleet.AdmitBatch) and every device runs fully observed. The per-device
// registries and SLO trackers merge into the daemon's fleet view, which
// ServeProm and ServeSLO expose — per-tenant SLO attainment aggregated
// across the whole cluster run.
func (p *Planner) planCluster(req PlanRequest, reply *PlanReply) error {
	if req.Faults != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: fault plans are single-device; drop Faults or set GPUs to 1")
	}
	horizon := ms(req.HorizonMS)
	if horizon <= 0 {
		horizon = sim.Second
	}
	gpuCfg := sim.DefaultConfig()
	if req.GPUSMs > 0 {
		gpuCfg.SMs = req.GPUSMs
	}
	devices := make([]fleet.DeviceSpec, req.GPUs)
	for i := range devices {
		devices[i] = fleet.DeviceSpec{Config: gpuCfg}
	}
	f, err := fleet.New(fleet.Config{Devices: devices, Profile: harness.FleetProfile, Observe: true})
	if err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}

	// Closed-loop (or burst) load per tenant, mirroring the single-device
	// workload shapes: a closed-loop tenant submits one request at t=0 and
	// then one per completion, a burst tenant submits all of its requests at
	// t=0. Either way a tenant submits at most Requests in total.
	tenants := make([]fleet.TenantSpec, len(req.Clients))
	first := make([]int, len(req.Clients)) // t=0 submissions per tenant
	for i, c := range req.Clients {
		tenants[i] = fleet.TenantSpec{
			Name:      fmt.Sprintf("c%d", i),
			App:       c.App,
			Quota:     c.Quota,
			SLOTarget: ms(c.SLOTargetMS),
			Think:     ms(c.ThinkMS),
			Requests:  c.Requests,
		}
		first[i] = 1
		if c.Workload == "burst" {
			first[i] = max(c.Requests, 1)
			tenants[i].Requests = first[i]
		}
	}
	if err := f.AdmitBatch(tenants); err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return fmt.Errorf("planner: %w", err)
	}
	for i, n := range first {
		for s := 0; s < n; s++ {
			if _, err := f.Submit(tenants[i].Name); err != nil {
				return err
			}
		}
	}
	if err := f.Run(horizon); err != nil {
		p.reg.Counter("plan_errors_total").Inc()
		return err
	}

	// Fold the run's fleet views into the daemon's accumulated state.
	p.mu.Lock()
	p.fleet = obs.MergeSnapshots(p.fleet, f.FleetSnapshot())
	p.mu.Unlock()
	p.slo.Merge(f.FleetSLOTracker())
	var buf writerBuf
	if err := f.WriteChromeTrace(&buf); err == nil {
		p.mu.Lock()
		p.lastTrace = buf.b
		p.mu.Unlock()
	}
	p.reg.Counter("plans_total").Inc()
	p.reg.Counter("plans/cluster").Inc()

	reply.System = "BLESS"
	reply.GPUs = req.GPUs
	var util float64
	snap := f.Snapshot()
	for _, d := range snap.Devices {
		util += d.Utilization
	}
	reply.Utilization = util / float64(len(snap.Devices))
	reply.ElapsedMS = float64(f.Elapsed()) / float64(sim.Millisecond)
	for _, r := range f.Results() {
		reply.Placement = append(reply.Placement, r.Device)
		_, prof, err := harness.FleetProfile(r.App, gpuCfg)
		if err != nil {
			return err
		}
		sum := metrics.Summarize(r.Latencies)
		iso := prof.IsoAtQuota(r.Quota)
		reply.PerClient = append(reply.PerClient, ClientOutcome{
			App:            r.App,
			Quota:          r.Quota,
			Completed:      r.Completed,
			Failed:         r.Failed,
			MeanLatencyMS:  float64(sum.Mean) / float64(sim.Millisecond),
			P99LatencyMS:   float64(sum.P99) / float64(sim.Millisecond),
			ISOLatencyMS:   float64(iso) / float64(sim.Millisecond),
			MeetsISOTarget: sum.Mean <= iso,
		})
	}
	return nil
}
