package fleet

import (
	"strings"
	"testing"

	"bless/internal/sim"
)

// TestAdmitBatch: a valid batch lands whole, in batch order, with every
// device's placed quota within capacity and each used device deployed once
// with its whole resident set.
func TestAdmitBatch(t *testing.T) {
	f := pool(t, 2, nil)
	specs := []TenantSpec{
		{Name: "a", App: "resnet50", Quota: 0.4},
		{Name: "b", App: "vgg11", Quota: 0.4},
		{Name: "c", App: "resnet50", Quota: 0.4},
	}
	if err := f.AdmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	if len(snap.Tenants) != len(specs) {
		t.Fatalf("fleet holds %d tenants, want %d", len(snap.Tenants), len(specs))
	}
	for i, tp := range snap.Tenants {
		if tp.Name != specs[i].Name {
			t.Errorf("tenant %d is %q, want batch order %q", i, tp.Name, specs[i].Name)
		}
	}
	for _, d := range snap.Devices {
		if d.QuotaSubscribed > 1+quotaTolerance {
			t.Errorf("device %d oversubscribed: %.2f", d.Device, d.QuotaSubscribed)
		}
	}
	if st := f.Stats(); st.Admitted != 3 || st.AdmitRejected != 0 {
		t.Errorf("admitted=%d rejected=%d, want 3/0", st.Admitted, st.AdmitRejected)
	}
}

// TestAdmitBatchPlacesJointly: the cluster experiment's six tenants fit
// three devices only under joint placement; least-loaded routing one
// tenant at a time strands the sixth.
func TestAdmitBatchPlacesJointly(t *testing.T) {
	specs := []TenantSpec{
		{Name: "t0", App: "vgg11", Quota: 0.5}, {Name: "t1", App: "resnet50", Quota: 0.5},
		{Name: "t2", App: "bert", Quota: 0.6}, {Name: "t3", App: "resnet101", Quota: 0.4},
		{Name: "t4", App: "resnet50", Quota: 0.5}, {Name: "t5", App: "vgg11", Quota: 0.5},
	}
	seq := pool(t, 3, nil)
	var err error
	for _, s := range specs {
		if err = seq.Admit(s); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("sequential admission placed all six; the joint case is not exercised")
	}
	f := pool(t, 3, nil)
	if err := f.AdmitBatch(specs); err != nil {
		t.Fatalf("joint placement: %v", err)
	}
	if err := f.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Results() {
		if r.Completed == 0 {
			t.Errorf("%s completed no requests", r.Name)
		}
	}
}

// TestAdmitBatchValidatesUpFront: any invalid spec rejects the whole batch
// before a single tenant places, and a valid batch needs a pool with no
// tenants.
func TestAdmitBatchValidatesUpFront(t *testing.T) {
	f := pool(t, 2, nil)
	if err := f.Admit(TenantSpec{Name: "incumbent", App: "resnet50", Quota: 0.3}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		specs []TenantSpec
		want  string
	}{
		{"empty name", []TenantSpec{{App: "resnet50", Quota: 0.3}}, "needs a name"},
		{"within-batch dup", []TenantSpec{
			{Name: "x", App: "resnet50", Quota: 0.3},
			{Name: "x", App: "vgg11", Quota: 0.3},
		}, "twice"},
		{"existing tenant", []TenantSpec{
			{Name: "y", App: "resnet50", Quota: 0.3},
			{Name: "incumbent", App: "vgg11", Quota: 0.3},
		}, "already admitted"},
		{"quota range", []TenantSpec{
			{Name: "y", App: "resnet50", Quota: 0.3},
			{Name: "z", App: "vgg11", Quota: 1.5},
		}, "outside"},
		{"non-empty pool", []TenantSpec{
			{Name: "y", App: "resnet50", Quota: 0.3},
		}, "no tenants"},
	}
	for _, tc := range cases {
		err := f.AdmitBatch(tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
		if got := len(f.Snapshot().Tenants); got != 1 {
			t.Fatalf("%s: fleet mutated to %d tenants by rejected batch", tc.name, got)
		}
	}
}

// TestAdmitBatchStopsAtCapacity: a batch the pool cannot hold admits
// nothing, counts every tenant rejected, and leaves the pool usable.
func TestAdmitBatchStopsAtCapacity(t *testing.T) {
	f := pool(t, 1, nil)
	specs := []TenantSpec{
		{Name: "a", App: "resnet50", Quota: 0.6},
		{Name: "b", App: "vgg11", Quota: 0.6},
	}
	err := f.AdmitBatch(specs)
	if err == nil {
		t.Fatal("over-capacity batch admitted")
	}
	if !strings.Contains(err.Error(), "batch admission") {
		t.Errorf("error does not name the batch: %v", err)
	}
	if got := len(f.Snapshot().Tenants); got != 0 {
		t.Errorf("fleet holds %d tenants, want 0", got)
	}
	if st := f.Stats(); st.AdmitRejected != 2 {
		t.Errorf("AdmitRejected = %d, want 2", st.AdmitRejected)
	}
	if err := f.AdmitBatch(specs[:1]); err != nil {
		t.Errorf("feasible batch after a rejected one: %v", err)
	}
}

// TestAdmitBatchErrors: construction and placement failures surface as
// errors, never as a partial pool.
func TestAdmitBatchErrors(t *testing.T) {
	if _, err := New(Config{Profile: testProfile}); err == nil {
		t.Error("pool with no devices accepted")
	}
	f := pool(t, 1, nil)
	if err := f.AdmitBatch([]TenantSpec{{Name: "a", App: "no-such-app", Quota: 0.5}}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := f.AdmitBatch([]TenantSpec{
		{Name: "a", App: "vgg11", Quota: 0.9},
		{Name: "b", App: "resnet50", Quota: 0.9},
	}); err == nil {
		t.Error("infeasible placement accepted")
	}
	if _, err := f.Submit("a"); err == nil {
		t.Error("submit to an unadmitted tenant accepted")
	}
}

// TestAdmitBatchIsolatesDevices: two tenants forced onto separate devices
// by quota must not affect each other — each runs at solo full-device speed
// despite simultaneous load.
func TestAdmitBatchIsolatesDevices(t *testing.T) {
	f := pool(t, 2, nil)
	if err := f.AdmitBatch([]TenantSpec{
		{Name: "a", App: "resnet50", Quota: 0.9, Requests: 1},
		{Name: "b", App: "resnet50", Quota: 0.9, Requests: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	res := f.Results()
	if res[0].Device == res[1].Device {
		t.Fatal("0.9-quota tenants placed on one device")
	}
	_, prof, err := testProfile("resnet50", sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	solo := prof.Iso[prof.Partitions-1]
	for _, r := range res {
		if r.Completed != 1 {
			t.Fatalf("%s completed %d requests, want 1", r.Name, r.Completed)
		}
		if lat := r.Latencies[0]; lat > solo+solo/10 {
			t.Errorf("%s latency %v, want near solo %v (device isolation)", r.Name, lat, solo)
		}
	}
}

// TestDevicesShareVirtualTime: devices run on one virtual clock — a
// submission at a RunTo pause arrives at the pause instant on any device.
func TestDevicesShareVirtualTime(t *testing.T) {
	f := pool(t, 2, nil)
	if err := f.AdmitBatch([]TenantSpec{
		{Name: "a", App: "vgg11", Quota: 0.8, Requests: 1},
		{Name: "b", App: "resnet50", Quota: 0.8, Requests: 1},
	}); err != nil {
		t.Fatal(err)
	}
	r0, err := f.Submit("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Begin(sim.Second); err != nil {
		t.Fatal(err)
	}
	defer f.Finish()
	if _, err := f.RunTo(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// b's closed loop issued its one request at t=0; an explicit Submit
	// issues regardless of the bound.
	r1, err := f.Submit("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTo(-1); err != nil {
		t.Fatal(err)
	}
	if r1.Arrival != 5*sim.Millisecond {
		t.Errorf("second request arrival %v, want 5ms", r1.Arrival)
	}
	if r0.Done == 0 || r1.Done == 0 {
		t.Error("requests incomplete")
	}
}
