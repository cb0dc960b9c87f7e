package fleet

import (
	"io"
	"sort"

	"bless/internal/obs"
	"bless/internal/sharing"
	"bless/internal/sim"
	"bless/internal/timeline"
)

// Pool observability: with Config.Observe set, every device gets its own
// bus, collector, registry and SLO tracker, with events stamped by device
// name ("gpu0", "gpu1", ...). The per-device views merge into pool-wide
// ones — registries via obs.MergeSnapshots (lossless histogram merge), SLO
// attainment via obs.MergeSLO — which is what blessd's debug endpoints
// read. Routing never reads them: policies use the device's plain counters,
// so observing a run cannot change it.

// deviceObs is one device's observability attachment.
type deviceObs struct {
	bus     *obs.Bus
	col     *obs.Collector
	reg     *obs.Registry
	slo     *obs.SLOTracker
	targets map[string]sim.Time // app name -> SLO target
}

// observe instruments the device before its runtime deploys, so
// deployment-time decisions are captured too.
func (d *device) observe() {
	name := d.spec.Name
	do := &deviceObs{
		bus:     obs.NewBus(),
		col:     obs.NewCollector(),
		reg:     obs.NewRegistry(),
		slo:     obs.NewSLOTracker(),
		targets: make(map[string]sim.Time),
	}
	do.col.Device = name
	do.col.Recorder.LaneOf = func(q *sim.Queue) string {
		return name + "/" + obs.ClientLane(q)
	}
	do.bus.Subscribe(do.col)
	do.bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindRequestAdmitted:
			do.reg.Counter("requests/admitted_total").Inc()
		case obs.KindRequestDone:
			if ev.Reason == "failed" {
				do.reg.Counter("requests/failed_total").Inc()
			} else {
				do.reg.Counter("requests/completed_total").Inc()
				do.reg.Histogram("latency/request_ns").Observe(ev.Actual)
			}
			do.slo.Observe(ev.Client, do.targets[ev.Client], ev.Actual, ev.Reason == "failed")
		case obs.KindSquadFormed:
			do.reg.Counter("squads/formed_total").Inc()
		case obs.KindKernelFault:
			do.reg.Counter("faults/kernel_total").Inc()
		case obs.KindKernelRetry:
			do.reg.Counter("faults/retry_total").Inc()
		case obs.KindRequestAbort:
			do.reg.Counter("faults/abort_total").Inc()
		}
	}))
	d.gpu.AddTracer(do.col.Recorder)
	d.rt.Observe(do.bus)
	d.obs = do
}

// target registers a resident's SLO target. Bus events name clients by app,
// so residents of one app share a tracker entry (the last target set wins).
func (do *deviceObs) target(c *sharing.Client) {
	do.targets[c.App.Name] = c.SLOTarget
	do.slo.SetTarget(c.App.Name, c.SLOTarget)
}

// events returns every device's collected decision events merged into one
// stream, ordered by (At, device index). Nil when unobserved.
func (f *Fleet) events() []obs.Event {
	var out []obs.Event
	for _, d := range f.devices {
		if d.obs != nil {
			out = append(out, d.obs.col.Events...)
		}
	}
	// Each device's stream is time-ordered; a stable sort by At keeps
	// per-device publication order and breaks cross-device ties by device.
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FleetSnapshot merges every device's registry, bus self-metrics (events
// emitted, tracing wall time, events dropped) included, into the pool-wide
// view: counters sum, histograms merge losslessly. Zero when unobserved.
func (f *Fleet) FleetSnapshot() obs.Snapshot {
	var parts []obs.Snapshot
	for _, d := range f.devices {
		if d.obs == nil {
			continue
		}
		reg, cost := d.obs.reg, d.obs.bus.Cost()
		set := func(name string, v int64) {
			c := reg.Counter(name)
			c.Add(v - c.Value())
		}
		set("obs/events_total", cost.Events)
		set("obs/publish_wall_ns", cost.WallNS)
		set("obs/events_dropped_total", d.obs.col.Dropped())
		parts = append(parts, reg.Snapshot())
	}
	return obs.MergeSnapshots(parts...)
}

// FleetSLOTracker merges every device's SLO tracker into one pool-wide
// tracker (losslessly — callers can fold it further, e.g. across plans).
// Empty when unobserved.
func (f *Fleet) FleetSLOTracker() *obs.SLOTracker {
	var trackers []*obs.SLOTracker
	for _, d := range f.devices {
		if d.obs != nil {
			trackers = append(trackers, d.obs.slo)
		}
	}
	return obs.MergeSLO(trackers...)
}

// WriteChromeTrace exports the whole pool as one Chrome trace: kernel spans
// on device-prefixed client lanes ("gpu0/resnet50"), decision events on
// per-device scheduler lanes. Writes an empty trace when unobserved.
func (f *Fleet) WriteChromeTrace(w io.Writer) error {
	var spans []timeline.Span
	for _, d := range f.devices {
		if d.obs != nil {
			spans = append(spans, d.obs.col.Recorder.Spans...)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return obs.WriteChromeTrace(w, spans, f.events())
}
