package fleet

import (
	"fmt"
	"sort"
)

// Live migration moves a tenant between devices without a service pause:
//
//	admitted ──Migrate──▶ migrating ──backlog drains──▶ admitted (on target)
//
// The apply step admits the tenant on the target first (sharing.Dynamic
// AddClient, quotas re-normalized bubble-free), flips routing so new
// requests flow to the target immediately, then starts a graceful leave on
// the source: the runtime finishes the source backlog and releases the
// client's memory and quota only when the last queued request completes —
// the chaos leave path doing double duty as the drain mechanism. A crash of
// the source or target mid-migration is handled by CrashDevice like any
// other device loss: outstanding requests of the lost device are re-routed,
// completed-exactly-once preserved.
//
// Migration triggers are not applied where they are called. They collect
// into a pending set and apply in one engine event at the same instant, in
// canonical (tenant, target) order — so the order triggers arrive in within
// an instant (rebalancer loops, RPCs, test permutations) cannot change the
// simulation.

// move is one pending migration trigger.
type move struct {
	tenant string
	target int
	reason string
}

// Migrate requests a live migration of the tenant onto the target device.
// The move is validated and applied at the end of the current instant; a
// move that no longer fits by then is rejected (counted, not fatal).
func (f *Fleet) Migrate(tenantName string, target int) error {
	t, ok := f.tenants[tenantName]
	if !ok {
		return fmt.Errorf("fleet: unknown tenant %q", tenantName)
	}
	if t.evicted {
		return fmt.Errorf("fleet: tenant %q was evicted", tenantName)
	}
	if target < 0 || target >= len(f.devices) {
		return fmt.Errorf("fleet: device %d out of range [0,%d)", target, len(f.devices))
	}
	if len(t.drains) > 0 {
		return fmt.Errorf("fleet: tenant %q is still draining a previous migration", tenantName)
	}
	for _, m := range f.moves {
		if m.tenant == tenantName {
			return fmt.Errorf("fleet: tenant %q already has a pending migration", tenantName)
		}
	}
	f.moves = append(f.moves, move{tenant: tenantName, target: target, reason: "requested"})
	f.armMoves()
	return nil
}

// armMoves schedules the apply event for the current instant (once).
func (f *Fleet) armMoves() {
	if f.movesArmed {
		return
	}
	f.movesArmed = true
	f.ctrl.Schedule(f.ctrl.Now(), f.applyMoves)
}

// applyMoves applies every migration collected this instant in canonical
// order, making the trigger order immaterial.
func (f *Fleet) applyMoves() {
	f.movesArmed = false
	moves := f.moves
	f.moves = nil
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].tenant != moves[j].tenant {
			return moves[i].tenant < moves[j].tenant
		}
		return moves[i].target < moves[j].target
	})
	for _, m := range moves {
		f.applyMove(m)
	}
}

// applyMove performs one migration: admit on target, flip routing, drain
// source. Rejections (tenant gone, target unfit by apply time) are counted.
func (f *Fleet) applyMove(m move) {
	t, ok := f.tenants[m.tenant]
	if !ok || t.evicted || t.host == nil {
		f.stats.MigrationsRejected++
		return
	}
	src := t.host
	if src.dev.id == m.target {
		return // already there: a no-op, not a rejection
	}
	dev := f.devices[m.target]
	if err := f.fits(t, dev); err != nil {
		f.stats.MigrationsRejected++
		return
	}
	dst, err := f.place(t, dev)
	if err != nil {
		f.stats.MigrationsRejected++
		return
	}
	// Routing flips before the source starts leaving: there is no instant
	// at which the tenant has nowhere to send requests.
	t.host = dst
	f.retarget(t)
	src.draining = true
	t.drains = append(t.drains, src)
	f.drainCount++
	t.migrations++
	f.stats.Migrations++
	if err := src.dev.rt.RemoveClient(src.local, false); err != nil {
		// The runtime refused the leave (cannot happen for a live client);
		// keep accounting consistent by treating the source as drained.
		src.draining = false
		t.drains = t.drains[:len(t.drains)-1]
		f.drainCount--
		f.finishDrain(src)
		return
	}
	if src.pending == 0 {
		// Empty backlog: the runtime released the client synchronously.
		f.finishDrain(src)
	}
}

// CrashDevice kills a device: every resident client crashes (queued kernel
// launches cancelled, nothing on the device ever completes again), displaced
// tenants are re-placed on surviving devices by the routing policy, and
// their outstanding requests are re-submitted to the new host in sequence
// order — completed exactly once fleet-wide, never twice. A tenant no
// surviving device can fit is evicted; its in-flight requests on the dead
// device are accounted lost-to-eviction.
func (f *Fleet) CrashDevice(id int) error {
	if id < 0 || id >= len(f.devices) {
		return fmt.Errorf("fleet: device %d out of range [0,%d)", id, len(f.devices))
	}
	d := f.devices[id]
	if d.dead {
		return fmt.Errorf("fleet: device %s already crashed", d.spec.Name)
	}
	now := f.now()
	// Deliver the device's in-flight exchange records first: those
	// completions happened before the crash, and resubmitting them from the
	// teardown would duplicate a delivery.
	f.flushDead(id, now)
	d.dead = true
	d.retired = true
	f.stats.DeviceCrashes++
	f.churned = true
	if f.checker != nil {
		f.checker.DeviceCrashed(now, id)
	}

	// Tear down every residency, local-ID order. Crashed clients' queued
	// work is cancelled inside the runtime; the fleet releases its mirror
	// of their subscription.
	displaced := make([]*tenant, 0, len(d.residents))
	for local := 0; local < d.nextLocal; local++ {
		res, ok := d.residents[local]
		if !ok {
			continue
		}
		_ = d.rt.RemoveClient(local, true)
		delete(d.residents, local)
		d.quota -= res.quota
		d.mem -= res.mem
		d.inflight -= res.pending
		t := res.t
		if res.draining {
			// A migration source died mid-drain: the tenant still has a
			// live host elsewhere; only the stranded backlog needs help.
			f.removeDrain(t, res)
			f.stats.MigrationsCompleted++
		} else {
			t.host = nil
			displaced = append(displaced, t)
		}
		if f.checker != nil {
			f.checker.TenantReleased(now, t.spec.Name, id)
		}
	}

	// Re-place displaced tenants in canonical name order, then re-submit
	// every request stranded on the dead device to its tenant's (new or
	// surviving) host.
	sort.Slice(displaced, func(i, j int) bool { return displaced[i].spec.Name < displaced[j].spec.Name })
	for _, t := range displaced {
		dev, err := f.route(t, id)
		if err != nil {
			f.evict(t, d)
			continue
		}
		res, err := f.place(t, dev)
		if err != nil {
			f.evict(t, d)
			continue
		}
		t.host = res
		f.retarget(t)
		t.migrations++
	}
	for _, name := range f.names {
		t := f.tenants[name]
		if t.evicted || t.host == nil {
			continue
		}
		f.resubmit(t, d)
	}
	return nil
}

// resubmit re-routes the tenant's requests stranded on the dead device to
// its current host, ascending sequence order. The dead device can never
// complete them (crash semantics cancel its queues and suppress its
// completions), so re-submission cannot create a duplicate.
func (f *Fleet) resubmit(t *tenant, dead *device) {
	var seqs []int
	for seq, res := range t.pending {
		if res.dev == dead {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return
	}
	sort.Ints(seqs)
	host := t.host
	now := f.now()
	for _, seq := range seqs {
		r := host.dev.shard.arena.New(host.client, seq, now)
		host.dev.rt.Submit(r)
		t.pending[seq] = host
		host.pending++
		host.dev.inflight++
		f.stats.Resubmitted++
		if f.checker != nil {
			f.checker.RequestRerouted(now, t.spec.Name, seq, dead.id, host.dev.id)
		}
	}
}

// evict gives up on a tenant no surviving device can host: its requests
// stranded on the dead device are lost (counted, exempted from the delivery
// invariant like a crashed client's), though backlog still draining on live
// devices finishes normally.
func (f *Fleet) evict(t *tenant, dead *device) {
	t.evicted = true
	t.host = nil
	f.cancelTimers(t)
	f.stats.Evicted++
	var lost []int
	for seq, res := range t.pending {
		if res.dev == dead {
			lost = append(lost, seq)
		}
	}
	sort.Ints(lost)
	for _, seq := range lost {
		delete(t.pending, seq)
	}
	f.stats.LostToEviction += len(lost)
	if f.checker != nil {
		f.checker.TenantEvicted(f.now(), t.spec.Name, lost)
	}
}
