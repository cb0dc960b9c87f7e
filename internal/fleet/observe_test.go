package fleet

import (
	"bytes"
	"testing"

	"bless/internal/metrics"
	"bless/internal/obs"
	"bless/internal/sim"
)

// runObserved places six tenants jointly on three devices and runs each
// for reqs closed-loop requests. The duplicate vgg11 tenants carry 0.6
// quotas so placement cannot co-locate them: request identity within a
// device is (app name, seq), so same-app tenants must sit on distinct
// devices to stay distinguishable in the event stream.
func runObserved(t *testing.T, observe bool, reqs int) *Fleet {
	t.Helper()
	devices := make([]DeviceSpec, 3)
	for i := range devices {
		devices[i] = DeviceClass("", 108, 40<<30)
	}
	f, err := New(Config{Devices: devices, Profile: testProfile, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	specs := []TenantSpec{
		{Name: "t0", App: "vgg11", Quota: 0.6}, {Name: "t1", App: "resnet50", Quota: 0.6},
		{Name: "t2", App: "vgg11", Quota: 0.6}, {Name: "t3", App: "bert", Quota: 0.3},
		{Name: "t4", App: "resnet101", Quota: 0.3}, {Name: "t5", App: "nasnet", Quota: 0.3},
	}
	for i := range specs {
		// Per-tenant SLO targets so attainment is exercised.
		_, prof, err := testProfile(specs[i].App, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		specs[i].SLOTarget = prof.Iso[prof.QuotaPartition(specs[i].Quota)] * 2
		specs[i].Think = 2 * sim.Millisecond
		specs[i].Requests = reqs
	}
	if err := f.AdmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestObserveLifecycles: every request reconstructs from the merged,
// device-stamped event stream into a complete lifecycle on its host device,
// and the merged trace carries device-prefixed lanes.
func TestObserveLifecycles(t *testing.T) {
	f := runObserved(t, true, 2)
	events := f.events()
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	for _, ev := range events {
		if ev.Device == "" {
			t.Fatalf("unstamped event: %+v", ev)
		}
	}
	ls := obs.Lifecycles(events)
	var total int
	for _, name := range f.names {
		tn := f.tenants[name]
		dev := tn.host.dev.spec.Name
		for i, seq := range tn.order {
			total++
			l := obs.FindLifecycle(ls, dev, tn.spec.App, seq)
			if l == nil {
				t.Fatalf("no lifecycle for %s/%s/%d", dev, tn.spec.App, seq)
			}
			if !l.Completed {
				t.Errorf("%s/%s/%d not completed", dev, tn.spec.App, seq)
			}
			if l.Latency != tn.lats[i] {
				t.Errorf("%s/%s/%d lifecycle latency %v != request latency %v",
					dev, tn.spec.App, seq, l.Latency, tn.lats[i])
			}
		}
	}
	if total != 12 || len(ls) != total {
		t.Errorf("lifecycles = %d for %d requests, want 12", len(ls), total)
	}
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"gpu0/`)) {
		t.Error("chrome trace lacks device-prefixed lanes")
	}
}

// TestObserveFleetMergeLossless is the ≥3-device property test: the
// pool-merged histogram must match, bucket for bucket and quantile for
// quantile, a single digest fed the combined per-device completion streams.
func TestObserveFleetMergeLossless(t *testing.T) {
	f := runObserved(t, true, 3)
	var whole metrics.Digest
	var completed int64
	for _, r := range f.Results() {
		for _, l := range r.Latencies {
			whole.Observe(l)
			completed++
		}
	}
	if completed != 18 {
		t.Fatalf("completed %d requests, want 18", completed)
	}

	snap := f.FleetSnapshot()
	if got := snap.Counters["requests/completed_total"]; got != completed {
		t.Fatalf("fleet completed = %d, want %d", got, completed)
	}
	h := snap.Histograms["latency/request_ns"]
	if h.Count != whole.Count || h.SumNS != int64(whole.Sum) ||
		h.MinNS != int64(whole.Min) || h.MaxNS != int64(whole.Max) {
		t.Errorf("fleet histogram envelope %+v, want digest %v", h, whole.String())
	}
	if h.P50NS != int64(whole.Quantile(0.50)) ||
		h.P95NS != int64(whole.Quantile(0.95)) ||
		h.P99NS != int64(whole.Quantile(0.99)) {
		t.Errorf("fleet quantiles %d/%d/%d diverge from combined-stream digest %d/%d/%d",
			h.P50NS, h.P95NS, h.P99NS,
			int64(whole.Quantile(0.50)), int64(whole.Quantile(0.95)), int64(whole.Quantile(0.99)))
	}
	for i, n := range h.Bucket {
		if whole.Buckets[i] != n {
			t.Errorf("bucket[%d] = %d, want %d", i, n, whole.Buckets[i])
		}
	}
	if snap.Counters["obs/events_total"] == 0 {
		t.Error("bus self-accounting missing from fleet snapshot")
	}

	// The SLO view is keyed by app: both vgg11 tenants fold into one entry.
	slo := f.FleetSLOTracker().Snapshot()
	byName := map[string]obs.TenantSLO{}
	for _, ts := range slo.Tenants {
		byName[ts.Tenant] = ts
	}
	if len(byName) != 5 { // vgg11, resnet50, bert, resnet101, nasnet
		t.Fatalf("fleet SLO tenants = %d, want 5: %+v", len(byName), slo.Tenants)
	}
	if vg := byName["vgg11"]; vg.Completed != 6 { // two tenants x 3 reqs
		t.Errorf("vgg11 fleet completed = %d, want 6", vg.Completed)
	}
	var sumCompleted int64
	for _, ts := range slo.Tenants {
		sumCompleted += ts.Completed
		if ts.Targeted != ts.Completed+ts.Failed {
			t.Errorf("%s targeted %d != completed+failed %d", ts.Tenant, ts.Targeted, ts.Completed+ts.Failed)
		}
	}
	if sumCompleted != completed {
		t.Errorf("fleet SLO completions = %d, want %d", sumCompleted, completed)
	}
}

// TestObserveOffIsInert: an unobserved pool returns no observability data,
// and observing cannot change a run — the completion digest and every
// latency match with Observe on and off.
func TestObserveOffIsInert(t *testing.T) {
	off := runObserved(t, false, 3)
	if got := off.FleetSnapshot(); len(got.Counters) != 0 || len(got.Histograms) != 0 {
		t.Errorf("unobserved FleetSnapshot = %+v", got)
	}
	if got := off.FleetSLOTracker().Snapshot(); len(got.Tenants) != 0 {
		t.Errorf("unobserved FleetSLO = %+v", got)
	}
	if off.events() != nil {
		t.Error("unobserved pool collected events")
	}
	on := runObserved(t, true, 3)
	if off.CompletionDigest() != on.CompletionDigest() {
		t.Fatalf("digest %016x unobserved vs %016x observed", off.CompletionDigest(), on.CompletionDigest())
	}
	a, b := off.Results(), on.Results()
	for i := range a {
		for j := range a[i].Latencies {
			if a[i].Latencies[j] != b[i].Latencies[j] {
				t.Fatalf("%s request %d: latency %v unobserved vs %v observed",
					a[i].Name, j, a[i].Latencies[j], b[i].Latencies[j])
			}
		}
	}
}
