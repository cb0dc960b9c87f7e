package fleet

import (
	"strings"
	"testing"

	"bless/internal/invariant"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sim"
)

// testProfile is a process-cached resolver so fleet unit tests don't
// re-profile per test.
var profCache = map[string]*profiler.Profile{}

func testProfile(app string, cfg sim.Config) (*model.App, *profiler.Profile, error) {
	a, err := model.Get(app)
	if err != nil {
		return nil, nil, err
	}
	key := app + "/" + string(rune(cfg.SMs))
	if p, ok := profCache[key]; ok {
		return a, p, nil
	}
	p, err := profiler.ProfileApp(a, profiler.Options{Config: cfg})
	if err != nil {
		return nil, nil, err
	}
	profCache[key] = p
	return a, p, nil
}

func pool(t *testing.T, n int, checker *invariant.FleetChecker) *Fleet {
	t.Helper()
	devices := make([]DeviceSpec, n)
	for i := range devices {
		devices[i] = DeviceClass("", 108, 40<<30)
	}
	f, err := New(Config{Devices: devices, Profile: testProfile, Checker: checker})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAdmitRoutesLeastLoaded(t *testing.T) {
	f := pool(t, 3, nil)
	for i, name := range []string{"a", "b", "c"} {
		if err := f.Admit(TenantSpec{Name: name, App: "resnet50", Quota: 0.3}); err != nil {
			t.Fatal(err)
		}
		snap := f.Snapshot()
		if got := snap.Tenants[i].Device; got != i {
			t.Fatalf("tenant %s placed on device %d, want %d (least-loaded spreads)", name, got, i)
		}
	}
	// Fourth tenant: all devices equally loaded, lowest index wins.
	if err := f.Admit(TenantSpec{Name: "d", App: "vgg11", Quota: 0.3}); err != nil {
		t.Fatal(err)
	}
	if got := f.Snapshot().Tenants[3].Device; got != 0 {
		t.Fatalf("tie broke to device %d, want 0", got)
	}
}

func TestAdmitRejectsWhenNothingFits(t *testing.T) {
	f := pool(t, 2, nil)
	for _, name := range []string{"a", "b"} {
		if err := f.Admit(TenantSpec{Name: name, App: "resnet50", Quota: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	err := f.Admit(TenantSpec{Name: "c", App: "resnet50", Quota: 0.5})
	if err == nil {
		t.Fatal("admission should fail: no device has 0.5 quota headroom")
	}
	if !strings.Contains(err.Error(), "no device fits") {
		t.Fatalf("unexpected error: %v", err)
	}
	if f.Stats().AdmitRejected != 1 {
		t.Fatalf("AdmitRejected = %d, want 1", f.Stats().AdmitRejected)
	}
}

func TestDuplicateTenantAndBadQuota(t *testing.T) {
	f := pool(t, 1, nil)
	if err := f.Admit(TenantSpec{Name: "a", App: "vgg11", Quota: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Admit(TenantSpec{Name: "a", App: "vgg11", Quota: 0.4}); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	if err := f.Admit(TenantSpec{Name: "b", App: "vgg11", Quota: 1.5}); err == nil {
		t.Fatal("quota > 1 admitted")
	}
}

func TestMigrateDrainsSourceAndFlipsRouting(t *testing.T) {
	checker := invariant.NewFleetChecker(invariant.FleetOptions{})
	f := pool(t, 2, checker)
	if err := f.Admit(TenantSpec{Name: "a", App: "resnet50", Quota: 0.5, Requests: 4}); err != nil {
		t.Fatal(err)
	}
	// Backlog on the source at t=0, then migrate mid-flight. The fourth
	// request follows the first completion, after the trigger, so it flows
	// to the target.
	for i := 0; i < 3; i++ {
		if _, err := f.Submit("a"); err != nil {
			t.Fatal(err)
		}
	}
	f.ScheduleMigration(sim.Millisecond, "a", 1)
	if err := f.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Migrations != 1 || st.MigrationsCompleted != 1 {
		t.Fatalf("migrations=%d completed=%d, want 1/1", st.Migrations, st.MigrationsCompleted)
	}
	snap := f.Snapshot()
	if snap.Tenants[0].Device != 1 {
		t.Fatalf("tenant ended on device %d, want 1", snap.Tenants[0].Device)
	}
	if snap.Devices[0].QuotaSubscribed != 0 {
		t.Fatalf("source still subscribed %g after drain", snap.Devices[0].QuotaSubscribed)
	}
	if snap.Devices[1].Completed != 1 {
		t.Fatalf("target completed %d requests, want the post-trigger 1", snap.Devices[1].Completed)
	}
	rep := checker.Report(f.Elapsed())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("completed %d, want 4", rep.Completed)
	}
}

func TestMigrateRejectsSecondWhileDraining(t *testing.T) {
	f := pool(t, 3, nil)
	if err := f.Admit(TenantSpec{Name: "a", App: "resnet50", Quota: 0.5, Requests: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit("a"); err != nil {
		t.Fatal(err)
	}
	f.ScheduleMigration(0, "a", 1)
	if err := f.Begin(sim.Second); err != nil {
		t.Fatal(err)
	}
	defer f.Finish()
	// The move applies at the t=0 barrier; by 1ms the source is draining
	// and a second migration must be refused.
	if _, err := f.RunTo(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate("a", 2); err == nil {
		t.Fatal("second migration accepted while the first still drains")
	}
	if _, err := f.RunTo(-1); err != nil {
		t.Fatal(err)
	}
}

func TestCrashEvictsWhenNoCapacity(t *testing.T) {
	checker := invariant.NewFleetChecker(invariant.FleetOptions{})
	f := pool(t, 2, checker)
	// Fill device 1 completely so a's tenant cannot be re-placed.
	if err := f.Admit(TenantSpec{Name: "a", App: "resnet50", Quota: 0.9, Requests: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Admit(TenantSpec{Name: "b", App: "resnet50", Quota: 0.9, Requests: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit("a"); err != nil {
		t.Fatal(err)
	}
	f.ScheduleCrash(sim.Millisecond, 0)
	if err := f.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Evicted != 1 {
		t.Fatalf("evicted=%d, want 1", st.Evicted)
	}
	if _, err := f.Submit("a"); err == nil {
		t.Fatal("submit to evicted tenant succeeded")
	}
	// Eviction is exempt from the delivery check, like a crashed client.
	if err := checker.Report(f.Elapsed()).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRebalancePure(t *testing.T) {
	snap := Snapshot{
		Devices: []DeviceLoad{
			{Device: 0, QuotaSubscribed: 0.9},
			{Device: 1, QuotaSubscribed: 0.1},
		},
		Tenants: []TenantPlacement{
			{Name: "x", Quota: 0.3, Device: 0},
			{Name: "y", Quota: 0.3, Device: 0},
			{Name: "z", Quota: 0.3, Device: 0},
		},
	}
	a := planRebalance(7, 3, snap, 0.25, 4)
	if len(a) == 0 {
		t.Fatal("imbalanced pool produced no plan")
	}
	// Pure: same inputs, same plan; permuted tenant listing, same plan.
	b := planRebalance(7, 3, snap, 0.25, 4)
	perm := snap
	perm.Tenants = []TenantPlacement{snap.Tenants[2], snap.Tenants[0], snap.Tenants[1]}
	c := planRebalance(7, 3, perm, 0.25, 4)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("plan not pure: %v vs %v vs %v", a, b, c)
		}
	}
	// Different (seed, epoch) may change tie-breaks but must stay valid.
	d := planRebalance(8, 4, snap, 0.25, 4)
	for _, m := range d {
		if m.target != 1 {
			t.Fatalf("move targets device %d, want 1", m.target)
		}
	}
}

func TestFleetCheckerCatchesViolations(t *testing.T) {
	c := invariant.NewFleetChecker(invariant.FleetOptions{})
	c.DeviceAdded(0, 0, 108)
	c.TenantAdmitted(0, "t", 0, 0.6)
	c.TenantAdmitted(0, "u", 0, 0.6) // 1.2 > capacity
	rep := c.Report(0)
	if rep.Ok() {
		t.Fatal("over-subscribed device not flagged")
	}
	if !strings.Contains(rep.Err().Error(), "exceeds SM capacity") {
		t.Fatalf("wrong violation: %v", rep.Err())
	}

	c = invariant.NewFleetChecker(invariant.FleetOptions{})
	c.DeviceAdded(0, 0, 108)
	c.TenantAdmitted(0, "t", 0, 0.5)
	c.RequestRouted(1, "t", 0, 0)
	c.RequestCompleted(2, "t", 0, 0, false)
	c.RequestCompleted(3, "t", 0, 0, false) // duplicate
	if err := c.Report(3).Err(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate delivery not flagged: %v", err)
	}

	c = invariant.NewFleetChecker(invariant.FleetOptions{})
	c.DeviceAdded(0, 0, 108)
	c.TenantAdmitted(0, "t", 0, 0.5)
	c.RequestRouted(1, "t", 0, 0)
	rep = c.Report(2)
	if rep.Lost != 1 {
		t.Fatalf("lost=%d, want 1 (routed, never completed)", rep.Lost)
	}
}
