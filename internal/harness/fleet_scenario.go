package harness

import (
	"fmt"

	"bless/internal/chaos"
	"bless/internal/fleet"
	"bless/internal/sim"
)

// FleetScenarioN builds the canonical fleet scenario: nTenants inference
// tenants over an nDevices heterogeneous pool (cycling three device speed
// classes: full 108-SM A100s, 80-SM and 60-SM cut-downs), quotas sized so
// the pool starts near the autoscaler's high watermark — the run then
// exercises every control-plane path: policy routing at admission, explicit
// same-instant migrations (the permutation-metamorphic handles), sustained
// shortfall rebalancing, and scale-up. blessbench -fleet runs it at
// 200 tenants x 32 devices; -fleet -smoke at 24 x 4.
func FleetScenarioN(seed int64, nTenants, nDevices int, horizon sim.Time) FleetScenario {
	classes := []struct {
		sms int
		mem int64
	}{
		{108, 40 << 30},
		{80, 32 << 30},
		{60, 24 << 30},
	}
	devices := make([]fleet.DeviceSpec, nDevices)
	for i := range devices {
		c := classes[i%len(classes)]
		devices[i] = fleet.DeviceClass(fmt.Sprintf("gpu%d", i), c.sms, c.mem)
	}

	apps := []string{"vgg11", "resnet50", "resnet101", "bert"}
	quotas := []float64{0.13, 0.16, 0.10, 0.18}
	slos := []sim.Time{0, 120 * sim.Millisecond, 200 * sim.Millisecond, 150 * sim.Millisecond}
	tenants := make([]fleet.TenantSpec, nTenants)
	for i := range tenants {
		tenants[i] = fleet.TenantSpec{
			Name:      fmt.Sprintf("t%03d", i),
			App:       apps[i%len(apps)],
			Quota:     quotas[(i/len(apps))%len(quotas)],
			SLOTarget: slos[i%len(slos)],
			Think:     sim.Time(2+i%3) * sim.Millisecond,
		}
	}

	// Explicit migrations, all triggered at the same instant: the handles
	// the migration-order permutation suite shuffles.
	var migs []FleetMigration
	at := horizon / 3
	for i := 0; i < 4 && i < nTenants; i++ {
		migs = append(migs, FleetMigration{
			At:     at,
			Tenant: tenants[i].Name,
			Target: (i*7 + 1) % nDevices,
		})
	}

	return FleetScenario{
		Seed:    seed,
		Devices: devices,
		Tenants: tenants,
		Horizon: horizon,
		Policy:  fleet.PolicyLeastLoaded,
		Rebalance: &fleet.RebalanceConfig{
			Interval:     horizon / 8,
			Threshold:    0.25,
			SustainTicks: 2,
			MaxMoves:     4,
		},
		Autoscale: &fleet.AutoscaleConfig{
			Template:      fleet.DeviceClass("gpu", 108, 40<<30),
			Min:           nDevices,
			Max:           nDevices + 4,
			HighWatermark: 0.85,
			LowWatermark:  0.20,
		},
		Migrations: migs,
		Invariants: true,
		Repro:      fmt.Sprintf("blessbench -fleet (seed %d, %d tenants, %d devices)", seed, nTenants, nDevices),
	}
}

// WithDeviceCrash returns the scenario with one device crash scheduled —
// the chaos path: mid-run loss of a pool member while its tenants are live
// (and, when at coincides with a migration drain, mid-migration).
func (sc FleetScenario) WithDeviceCrash(device int, at sim.Time) FleetScenario {
	sc.DeviceCrashes = append(append([]chaos.DeviceEvent(nil), sc.DeviceCrashes...), chaos.DeviceEvent{Device: device, At: at})
	return sc
}
