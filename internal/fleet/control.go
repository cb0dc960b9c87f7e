package fleet

import (
	"fmt"
	"sort"

	"bless/internal/sim"
)

// The control loop ticks on the rebalance interval. Every tick is an epoch:
// the fleet snapshots itself and derives all decisions — scale-up,
// scale-down, rebalance moves — as pure functions of (seed, epoch,
// snapshot). Nothing reads wall clocks or map order, so two runs of the
// same scenario (serial, parallel workers, permuted trigger order) tick
// through identical epochs and produce bit-identical digests.

// RebalanceConfig tunes the fleet rebalancer.
type RebalanceConfig struct {
	// Interval is the control-loop period (default 10ms virtual).
	Interval sim.Time
	// Threshold is the normalized quota-subscription spread (max - min
	// across live devices) that counts as a shortfall tick (default 0.25).
	Threshold float64
	// SustainTicks is how many consecutive shortfall ticks arm a rebalance
	// — "sustained quota shortfall", not a transient (default 2). Churn (a
	// device crash) arms the next tick unconditionally.
	SustainTicks int
	// MaxMoves bounds migrations per epoch (default 4).
	MaxMoves int
}

func (c *RebalanceConfig) interval() sim.Time {
	if c.Interval > 0 {
		return c.Interval
	}
	return 10 * sim.Millisecond
}

func (c *RebalanceConfig) threshold() float64 {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return 0.25
}

func (c *RebalanceConfig) sustain() int {
	if c.SustainTicks > 0 {
		return c.SustainTicks
	}
	return 2
}

func (c *RebalanceConfig) maxMoves() int {
	if c.MaxMoves > 0 {
		return c.MaxMoves
	}
	return 4
}

// AutoscaleConfig tunes the autoscaler.
type AutoscaleConfig struct {
	// Template is the device class new devices are cloned from.
	Template DeviceSpec
	// Min and Max bound the live (non-retired, non-dead) device count.
	Min, Max int
	// HighWatermark: mean quota subscription across live devices above
	// which the pool grows (default 0.85).
	HighWatermark float64
	// LowWatermark: mean subscription below which an empty device is
	// retired (default 0.30).
	LowWatermark float64
}

func (c *AutoscaleConfig) high() float64 {
	if c.HighWatermark > 0 {
		return c.HighWatermark
	}
	return 0.85
}

func (c *AutoscaleConfig) low() float64 {
	if c.LowWatermark > 0 {
		return c.LowWatermark
	}
	return 0.30
}

// start arms the control loop: one tick per rebalance interval up to the
// horizon. Without a Rebalance config it is a no-op.
func (f *Fleet) start(horizon sim.Time) {
	if f.cfg.Rebalance == nil {
		return
	}
	iv := f.cfg.Rebalance.interval()
	for at := iv; at <= horizon; at += iv {
		f.ctrl.Schedule(at, func() { f.tick() })
	}
}

// tick is one control-loop epoch.
func (f *Fleet) tick() {
	f.epoch++
	f.stats.Epochs++
	snap := f.Snapshot()

	if f.cfg.Autoscale != nil {
		f.autoscale(snap)
		// Scaling changed the pool; plan the epoch's moves on fresh state.
		snap = f.Snapshot()
	}

	rc := f.cfg.Rebalance
	if spread(snap) > rc.threshold() {
		f.shortfallTicks++
	} else {
		f.shortfallTicks = 0
	}
	if f.shortfallTicks < rc.sustain() && !f.churned {
		return
	}
	f.churned = false
	f.shortfallTicks = 0
	plan := planRebalance(f.cfg.Seed, f.epoch, snap, rc.threshold(), rc.maxMoves())
	if len(plan) == 0 {
		return
	}
	f.stats.Rebalances++
	for _, m := range plan {
		// Individual moves may no longer apply (tenant drained elsewhere,
		// capacity taken); applyMoves re-validates each.
		if err := f.Migrate(m.tenant, m.target); err != nil {
			f.stats.MigrationsRejected++
		}
	}
}

// autoscale grows the pool past the high watermark and retires idle devices
// below the low one. Scale-down is cordon-then-migrate: the device stops
// receiving placements and its tenants are moved off through the ordinary
// migration path, so capacity leaves the pool without dropping a request.
func (f *Fleet) autoscale(snap Snapshot) {
	ac := f.cfg.Autoscale
	live, total := 0, 0.0
	for _, d := range snap.Devices {
		if d.Dead || d.Retired {
			continue
		}
		live++
		total += d.QuotaSubscribed
	}
	if live == 0 {
		return
	}
	mean := total / float64(live)
	if mean > ac.high() && (ac.Max <= 0 || live < ac.Max) {
		spec := ac.Template
		if spec.Config.SMs == 0 {
			spec.Config = sim.DefaultConfig()
		}
		spec.Name = fmt.Sprintf("%s-as%d", nonEmpty(spec.Name, "gpu"), len(f.devices))
		if _, err := f.AddDevice(spec); err == nil {
			f.stats.ScaleUps++
			f.churned = true // rebalance onto the new capacity promptly
		}
		return
	}
	if mean < ac.low() && live > max(ac.Min, 1) {
		// Retire the emptiest cordon-able device: lowest subscription,
		// lowest index on ties. Only fully idle devices retire outright;
		// others are cordoned and drained by migration over later epochs.
		victim := -1
		best := 2.0
		for _, d := range snap.Devices {
			if d.Dead || d.Retired {
				continue
			}
			if d.QuotaSubscribed < best {
				best = d.QuotaSubscribed
				victim = d.Device
			}
		}
		if victim < 0 {
			return
		}
		d := f.devices[victim]
		d.retired = true
		f.stats.ScaleDowns++
		if f.checker != nil {
			f.checker.DeviceRetired(f.now(), victim)
		}
		// Move its tenants off through the canonical migration path.
		var names []string
		for local := 0; local < d.nextLocal; local++ {
			if res, ok := d.residents[local]; ok && !res.draining {
				names = append(names, res.t.spec.Name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			t := f.tenants[name]
			if dev, err := f.route(t, victim); err == nil {
				if err := f.Migrate(name, dev.id); err != nil {
					f.stats.MigrationsRejected++
				}
			}
		}
	}
}

// spread is the quota-subscription imbalance across live devices.
func spread(snap Snapshot) float64 {
	lo, hi := 2.0, -1.0
	for _, d := range snap.Devices {
		if d.Dead || d.Retired {
			continue
		}
		if d.QuotaSubscribed < lo {
			lo = d.QuotaSubscribed
		}
		if d.QuotaSubscribed > hi {
			hi = d.QuotaSubscribed
		}
	}
	if hi < 0 {
		return 0
	}
	return hi - lo
}

// planRebalance derives the epoch's migration plan purely from (seed,
// epoch, snapshot): repeatedly move a tenant from the most- to the
// least-subscribed live device while the spread exceeds the threshold and
// the move shrinks it. Candidate selection sorts by quota (biggest first),
// tie-broken by a seeded hash of (seed, epoch, tenant) then name — the
// deterministic derivation that keeps every execution mode bit-identical.
func planRebalance(seed, epoch int64, snap Snapshot, threshold float64, maxMoves int) []move {
	// Working copies of live-device subscriptions and tenant placement.
	type devState struct {
		id    int
		quota float64
	}
	var devs []devState
	idx := make(map[int]int)
	for _, d := range snap.Devices {
		if d.Dead || d.Retired {
			continue
		}
		idx[d.Device] = len(devs)
		devs = append(devs, devState{id: d.Device, quota: d.QuotaSubscribed})
	}
	if len(devs) < 2 {
		return nil
	}
	// Movable tenants per device: settled (not draining, not evicted).
	byDev := make(map[int][]TenantPlacement)
	moved := make(map[string]bool)
	for _, t := range snap.Tenants {
		if t.Evicted || t.Device < 0 || len(t.Draining) > 0 {
			continue
		}
		byDev[t.Device] = append(byDev[t.Device], t)
	}
	var plan []move
	for len(plan) < maxMoves {
		src, dst := 0, 0
		for i, d := range devs {
			if d.quota > devs[src].quota {
				src = i
			}
			if d.quota < devs[dst].quota {
				dst = i
			}
		}
		gap := devs[src].quota - devs[dst].quota
		if gap <= threshold {
			break
		}
		cands := byDev[devs[src].id]
		best := -1
		for i, c := range cands {
			if moved[c.Name] {
				continue
			}
			// The move must fit the target and shrink the gap.
			if devs[dst].quota+c.Quota > 1+quotaTolerance || c.Quota >= gap {
				continue
			}
			if best < 0 || rebalanceLess(seed, epoch, c, cands[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cands[best]
		moved[c.Name] = true
		plan = append(plan, move{tenant: c.Name, target: devs[dst].id, reason: "rebalance"})
		devs[src].quota -= c.Quota
		devs[dst].quota += c.Quota
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].tenant < plan[j].tenant })
	return plan
}

// rebalanceLess orders rebalance candidates: biggest quota first (fewest
// moves close the gap fastest), then the seeded hash, then the name.
func rebalanceLess(seed, epoch int64, a, b TenantPlacement) bool {
	if a.Quota != b.Quota {
		return a.Quota > b.Quota
	}
	ha, hb := mixHash(seed, epoch, a.Name), mixHash(seed, epoch, b.Name)
	if ha != hb {
		return ha < hb
	}
	return a.Name < b.Name
}

// mixHash is splitmix64 over (seed, epoch, name) — the pure decision key.
func mixHash(seed, epoch int64, name string) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(epoch)
	for i := 0; i < len(name); i++ {
		x ^= uint64(name[i])
		x *= 0xff51afd7ed558ccd
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nonEmpty(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
