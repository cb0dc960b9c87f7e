package harness

import (
	"fmt"

	"bless/internal/fleet"
	"bless/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "cluster",
		Title: "§4.2.2 extension: multi-GPU cluster — central placement + per-device BLESS runtimes",
		Run:   runCluster,
	})
}

// clusterSpecs are the cluster experiment's six tenants: (app, quota).
var clusterSpecs = []struct {
	app   string
	quota float64
}{
	{"vgg11", 0.5}, {"resnet50", 0.5},
	{"bert", 0.6}, {"resnet101", 0.4},
	{"resnet50", 0.5}, {"vgg11", 0.5},
}

// runClusterFleet places the six tenants jointly across a three-GPU pool
// through the central controller (fleet.AdmitBatch) and drives closed-loop
// load at medium intensity on every tenant: think time is two thirds of the
// app's full-GPU latency.
func runClusterFleet(opt Options) (*fleet.Fleet, error) {
	cfg := sim.DefaultConfig()
	horizon := sim.Second
	if opt.Quick {
		horizon = 250 * sim.Millisecond
	}
	devices := make([]fleet.DeviceSpec, 3)
	for i := range devices {
		devices[i] = fleet.DeviceSpec{Config: cfg}
	}
	f, err := fleet.New(fleet.Config{Devices: devices, Profile: FleetProfile})
	if err != nil {
		return nil, err
	}
	tenants := make([]fleet.TenantSpec, len(clusterSpecs))
	for i, s := range clusterSpecs {
		prof, err := ProfileFor(s.app, cfg)
		if err != nil {
			return nil, err
		}
		tenants[i] = fleet.TenantSpec{
			Name:  fmt.Sprintf("t%d", i),
			App:   s.app,
			Quota: s.quota,
			Think: sim.Time(float64(prof.Iso[prof.Partitions-1]) * 2 / 3),
		}
	}
	if err := f.AdmitBatch(tenants); err != nil {
		return nil, err
	}
	return f, f.Run(horizon)
}

// runCluster reports the cluster run's placement and each application's
// latency against its isolated-quota baseline.
func runCluster(opt Options) (*Table, error) {
	t := &Table{
		ID:      "cluster",
		Title:   "Three-GPU cluster deployment under per-device BLESS",
		Columns: []string{"app", "quota", "gpu", "mean (ms)", "ISO (ms)", "vs ISO"},
		Notes: []string{
			"§4.2.2: BLESS extends to multiple GPUs by replicating its runtime per device; a central controller places applications by memory and kernel compatibility",
		},
	}
	f, err := runClusterFleet(opt)
	if err != nil {
		return nil, err
	}
	for _, r := range f.Results() {
		prof, err := ProfileFor(r.App, sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		iso := prof.IsoAtQuota(r.Quota)
		t.Rows = append(t.Rows, []string{
			r.App,
			fmt.Sprintf("%.0f%%", r.Quota*100),
			fmt.Sprintf("gpu%d", r.Device),
			ms(r.MeanLat), ms(iso),
			pct(float64(r.MeanLat)/float64(iso) - 1),
		})
	}
	for _, d := range f.Snapshot().Devices {
		t.Rows = append(t.Rows, []string{d.Name, "", "", "", "", fmt.Sprintf("util %.0f%%", d.Utilization*100)})
	}
	return t, nil
}
