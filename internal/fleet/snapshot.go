package fleet

import (
	"fmt"
	"sort"

	"bless/internal/sim"
	"bless/internal/snapshot"
)

// ExportState captures the fleet's complete observable logical state at the
// current barrier of a paused run (RunTo with a stop point). Every
// section is keyed on canonical entities — devices by id, tenants in
// admission order, outstanding requests by ascending sequence, exchange
// records by their (deliver, dev, seq) key — and per-shard engine internals
// are reduced to the merged multiset of pending event instants, so the same
// logical state exports to identical bytes at any shard count or mapping.
//
// Pending engine events are closures; their firing instants are captured
// (EventTimes/ControlTimes) but their behavior is reconstructed on import by
// replaying the generating scenario to the same barrier, then proving the
// replayed export matches this one byte-for-byte.
func (f *Fleet) ExportState() (*snapshot.State, error) {
	if !f.began {
		return nil, fmt.Errorf("fleet: ExportState before Begin")
	}
	st := &snapshot.State{
		At:             f.window,
		Epoch:          f.epoch,
		ShortfallTicks: f.shortfallTicks,
		Churned:        f.churned,
		Stats:          snapshot.Stats(f.Stats()),
	}

	st.Devices = make([]snapshot.DeviceState, 0, len(f.devices))
	var loads []sim.QueueLoad
	for _, d := range f.devices {
		ds := snapshot.DeviceState{
			ID:          d.id,
			Name:        d.spec.Name,
			SMs:         d.cfg.SMs,
			MemoryBytes: d.cfg.MemoryBytes,
			Deployed:    d.deployed,
			Retired:     d.retired,
			Dead:        d.dead,
			NextLocal:   d.nextLocal,
			Quota:       d.quota,
			Mem:         d.mem,
			Inflight:    d.inflight,
			Completed:   d.completed,
			Failed:      d.failed,
			SLOOK:       d.sloOK,
			SLOMiss:     d.sloMiss,
			MemUsed:     d.gpu.MemUsed(),
			Utilization: d.gpu.Utilization(),
		}
		locals := make([]int, 0, len(d.residents))
		for local := range d.residents {
			locals = append(locals, local)
		}
		sort.Ints(locals)
		for _, local := range locals {
			res := d.residents[local]
			ds.Residents = append(ds.Residents, snapshot.ResidentState{
				Local:    res.local,
				Tenant:   res.t.spec.Name,
				Quota:    res.quota,
				Mem:      res.mem,
				Draining: res.draining,
				Pending:  res.pending,
			})
		}
		loads = d.gpu.Loads(loads)
		for _, ql := range loads {
			owner := -1
			if id, ok := ql.Queue.Context().Owner(); ok {
				owner = id
			}
			ds.Queues = append(ds.Queues, snapshot.QueueState{
				Owner:   owner,
				Pending: ql.Pending,
				Paused:  ql.Paused,
				Running: ql.Running != nil,
			})
		}
		if d.deployed {
			rs := d.rt.ExportState()
			ds.Runtime = &rs
		}
		st.Devices = append(st.Devices, ds)
	}

	st.Tenants = make([]snapshot.TenantState, 0, len(f.names))
	for _, name := range f.names {
		t := f.tenants[name]
		ts := snapshot.TenantState{
			Name:       name,
			App:        t.spec.App,
			Quota:      t.spec.Quota,
			SLOTarget:  t.spec.SLOTarget,
			Think:      t.spec.Think,
			Requests:   t.spec.Requests,
			Host:       -1,
			Evicted:    t.evicted,
			NextSeq:    t.nextSeq,
			Completed:  t.completed,
			Failed:     t.failed,
			Migrations: t.migrations,
			LatencySum: t.latencySum,
			Order:      t.order,
			Latencies:  t.lats,
		}
		if !t.evicted && t.host != nil {
			ts.Host = t.host.dev.id
		}
		seqs := make([]int, 0, len(t.pending))
		for seq := range t.pending {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		ts.PendingSeqs = seqs
		ts.PendingDevs = make([]int, len(seqs))
		for i, seq := range seqs {
			ts.PendingDevs[i] = t.pending[seq].dev.id
		}
		for _, res := range t.drains {
			ts.Drains = append(ts.Drains, res.dev.id)
		}
		sort.Ints(ts.Drains)
		for _, tm := range t.timers {
			ts.Timers = append(ts.Timers, tm.at)
		}
		sort.Slice(ts.Timers, func(i, j int) bool { return ts.Timers[i] < ts.Timers[j] })
		st.Tenants = append(st.Tenants, ts)
	}

	// Inbox is already held in canonical (deliver, dev, seq) order.
	st.Inbox = make([]snapshot.ExchangeRecord, 0, len(f.inbox))
	for i := range f.inbox {
		rec := &f.inbox[i]
		st.Inbox = append(st.Inbox, snapshot.ExchangeRecord{
			Deliver: rec.deliver,
			At:      rec.at,
			Dev:     rec.dev,
			Seq:     rec.seq,
			Tenant:  rec.res.t.spec.Name,
			Local:   rec.res.local,
			RSeq:    rec.rseq,
			Failed:  rec.failed,
			Lat:     rec.lat,
			Drained: rec.drained,
		})
	}

	st.ControlTimes = f.ctrl.PendingTimes(nil)
	for _, sh := range f.shards {
		st.EventTimes = sh.eng.PendingTimes(st.EventTimes)
	}
	sort.Slice(st.EventTimes, func(i, j int) bool { return st.EventTimes[i] < st.EventTimes[j] })

	if f.checker != nil {
		cp := f.checker.Checkpoint()
		st.Checker = &snapshot.CheckerState{
			Digest:    cp.Digest,
			Events:    cp.Events,
			Routed:    cp.Routed,
			Completed: cp.Completed,
			Rerouted:  cp.Rerouted,
		}
	}
	return st, nil
}
