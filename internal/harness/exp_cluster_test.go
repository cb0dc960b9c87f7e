package harness

import (
	"reflect"
	"testing"

	"bless/internal/sim"
)

// TestClusterExperimentBeatsISO gates EXPERIMENTS.md's cluster row: with the
// six tenants placed jointly over three GPUs, every device's placed quota
// stays within capacity, every tenant completes work, and every app's mean
// latency beats its isolated-quota baseline under per-device BLESS.
func TestClusterExperimentBeatsISO(t *testing.T) {
	f, err := runClusterFleet(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Snapshot().Devices {
		if d.QuotaSubscribed > 1+1e-9 {
			t.Errorf("%s placed quota %.2f exceeds the device", d.Name, d.QuotaSubscribed)
		}
	}
	for _, r := range f.Results() {
		if r.Completed < 1 {
			t.Errorf("%s (%s) completed no requests", r.Name, r.App)
			continue
		}
		prof, err := ProfileFor(r.App, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if iso := prof.IsoAtQuota(r.Quota); r.MeanLat >= iso {
			t.Errorf("%s (%s, quota %.2f): mean %v does not beat ISO %v", r.Name, r.App, r.Quota, r.MeanLat, iso)
		}
	}
}

// TestClusterExperimentDeterministic: two runs in one process render the
// same table (placement, per-app latency, utilization).
func TestClusterExperimentDeterministic(t *testing.T) {
	a, err := runCluster(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := runCluster(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i+1, a.Rows, b.Rows)
		}
	}
}
