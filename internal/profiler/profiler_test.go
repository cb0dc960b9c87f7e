package profiler

import (
	"errors"
	"testing"
	"testing/quick"

	"bless/internal/model"
	"bless/internal/sim"
)

func profR50(t testing.TB) *Profile {
	t.Helper()
	p, err := ProfileApp(model.MustGet("resnet50"), Options{})
	if err != nil {
		t.Fatalf("ProfileApp: %v", err)
	}
	return p
}

func TestProfileShape(t *testing.T) {
	p := profR50(t)
	if p.Partitions != DefaultPartitions {
		t.Errorf("Partitions = %d, want %d", p.Partitions, DefaultPartitions)
	}
	if p.NumKernels() != 80 {
		t.Errorf("kernels = %d, want 80", p.NumKernels())
	}
	if len(p.PartitionSMs) != 18 || p.PartitionSMs[0] != 6 || p.PartitionSMs[17] != 108 {
		t.Errorf("partition grid = %v, want 6..108 step 6", p.PartitionSMs)
	}
	if p.MemoryBytes <= 0 {
		t.Error("no memory requirement recorded")
	}
}

func TestIsoLatencyMatchesSolo(t *testing.T) {
	app := model.MustGet("resnet50")
	p := profR50(t)
	// Full-partition isolated latency equals the analytic solo duration plus
	// small launch-pipelining gaps.
	cfg := sim.DefaultConfig()
	analytic := app.SoloDuration(cfg.SMs, cfg.PCIeBytesPerNS)
	got := p.Iso[p.Partitions-1]
	if got < analytic {
		t.Errorf("measured iso %v < analytic floor %v", got, analytic)
	}
	if got > analytic+analytic/10 {
		t.Errorf("measured iso %v >> analytic %v: launch gaps too large", got, analytic)
	}
}

func TestIsoMonotoneInPartition(t *testing.T) {
	p := profR50(t)
	for i := 1; i < p.Partitions; i++ {
		if p.Iso[i] > p.Iso[i-1] {
			t.Errorf("Iso[%d]=%v > Iso[%d]=%v: more SMs must not be slower",
				i, p.Iso[i], i-1, p.Iso[i-1])
		}
	}
}

func TestCumulativeConsistency(t *testing.T) {
	p := profR50(t)
	for pt := 0; pt < p.Partitions; pt++ {
		var prev sim.Time
		for k := range p.Kernels {
			cum := p.Kernels[k].Cum[pt]
			if cum < prev {
				t.Fatalf("partition %d kernel %d: cum %v < previous %v", pt, k, cum, prev)
			}
			prev = cum
		}
		last := p.Kernels[len(p.Kernels)-1].Cum[pt]
		if last != p.Iso[pt] {
			t.Errorf("partition %d: last cum %v != iso %v", pt, last, p.Iso[pt])
		}
	}
}

func TestKernelDurationsPositive(t *testing.T) {
	p := profR50(t)
	for pt := 0; pt < p.Partitions; pt++ {
		for k := range p.Kernels {
			if p.Kernels[k].Dur[pt] <= 0 {
				t.Fatalf("partition %d kernel %d: non-positive duration", pt, k)
			}
		}
	}
}

func TestKernelDurAtInterpolates(t *testing.T) {
	p := profR50(t)
	// Pick a compute kernel.
	k := -1
	for i := range p.Kernels {
		if p.Kernels[i].IsCompute {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no compute kernel")
	}
	// Exactly on the grid.
	if got, want := p.KernelDurAt(k, 54), p.Kernels[k].Dur[8]; got != want {
		t.Errorf("KernelDurAt(54) = %v, want grid value %v", got, want)
	}
	// Between grid points: bounded by neighbours.
	lo, hi := p.Kernels[k].Dur[8], p.Kernels[k].Dur[7] // 54 and 48 SMs
	mid := p.KernelDurAt(k, 51)
	if mid < lo || mid > hi {
		t.Errorf("KernelDurAt(51) = %v outside [%v, %v]", mid, lo, hi)
	}
	// Beyond the device: clamps to full-GPU.
	if got, want := p.KernelDurAt(k, 500), p.Kernels[k].Dur[17]; got != want {
		t.Errorf("KernelDurAt(500) = %v, want clamp %v", got, want)
	}
	// Below the smallest grid point: slower than the 6-SM measurement.
	if got := p.KernelDurAt(k, 3); got < p.Kernels[k].Dur[0] {
		t.Errorf("KernelDurAt(3) = %v faster than 6-SM grid %v", got, p.Kernels[k].Dur[0])
	}
}

func TestKernelDurAtMonotoneProperty(t *testing.T) {
	p := profR50(t)
	f := func(kRaw uint16, a, b uint8) bool {
		k := int(kRaw) % p.NumKernels()
		if !p.Kernels[k].IsCompute {
			return true
		}
		s1, s2 := int(a)%120+1, int(b)%120+1
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return p.KernelDurAt(k, s2) <= p.KernelDurAt(k, s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuotaPartition(t *testing.T) {
	p := profR50(t)
	cases := []struct {
		quota float64
		want  int
	}{
		{1.0, 17},
		{0.5, 8},        // 9th partition = 54 SMs
		{1.0 / 3.0, 5},  // 6th partition = 36 SMs
		{2.0 / 3.0, 11}, // 12th = 72 SMs
		{0.01, 0},       // clamps low
		{2.0, 17},       // clamps high
	}
	for _, c := range cases {
		if got := p.QuotaPartition(c.quota); got != c.want {
			t.Errorf("QuotaPartition(%g) = %d, want %d", c.quota, got, c.want)
		}
	}
}

func TestPartitionFor(t *testing.T) {
	p := profR50(t)
	if got := p.PartitionFor(54); p.PartitionSMs[got] != 54 {
		t.Errorf("PartitionFor(54) -> %d SMs", p.PartitionSMs[got])
	}
	if got := p.PartitionFor(55); p.PartitionSMs[got] != 60 {
		t.Errorf("PartitionFor(55) -> %d SMs, want 60 (round up)", p.PartitionSMs[got])
	}
	if got := p.PartitionFor(1000); got != 17 {
		t.Errorf("PartitionFor(1000) = %d, want clamp to 17", got)
	}
}

func TestProfileDeterministic(t *testing.T) {
	p1 := profR50(t)
	p2 := profR50(t)
	for pt := 0; pt < p1.Partitions; pt++ {
		if p1.Iso[pt] != p2.Iso[pt] {
			t.Fatalf("partition %d: iso differs across runs (%v vs %v)", pt, p1.Iso[pt], p2.Iso[pt])
		}
	}
}

func TestProfileCostRealistic(t *testing.T) {
	// Table 1 reports profiling costs from 0.38s (R50) to 6.9s (BERT
	// training). Our N+1 simulated runs should land in the same regime.
	p := profR50(t)
	if p.Cost < 100*sim.Millisecond || p.Cost > 2*sim.Second {
		t.Errorf("profiling cost %v, want within [0.1s, 2s] for resnet50", p.Cost)
	}
}

func TestProfileAllPreservesOrder(t *testing.T) {
	apps := model.InferenceApps()[:2]
	ps, err := ProfileAll(apps, Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].AppName != apps[0].Name || ps[1].AppName != apps[1].Name {
		t.Error("ProfileAll reordered results")
	}
}

func TestProfileRejectsBadInput(t *testing.T) {
	bad := &model.App{Name: "bad"}
	if _, err := ProfileApp(bad, Options{}); err == nil {
		t.Error("empty app accepted")
	}
	cfg := sim.DefaultConfig()
	cfg.SMs = 4
	if _, err := ProfileApp(model.MustGet("vgg11"), Options{Partitions: 18, Config: cfg}); err == nil {
		t.Error("more partitions than SMs accepted")
	}
}

func TestMemcpyKernelsNotComputeInProfile(t *testing.T) {
	p, err := ProfileApp(model.MustGet("vgg11"), Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernels[0].IsCompute {
		t.Error("h2d input kernel marked compute")
	}
	if p.Kernels[len(p.Kernels)-1].IsCompute {
		t.Error("d2h output kernel marked compute")
	}
	// Memcpy duration must be partition-independent.
	k0 := p.Kernels[0]
	if k0.Dur[0] != k0.Dur[len(k0.Dur)-1] {
		t.Errorf("memcpy duration varies with SM partition: %v vs %v", k0.Dur[0], k0.Dur[len(k0.Dur)-1])
	}
}

func TestCheckColocationAccepts(t *testing.T) {
	ps, err := ProfileAll(model.InferenceApps(), Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckColocation(ps, sim.DefaultConfig(), DefaultAdmissionLimits()); err != nil {
		t.Errorf("paper's five inference apps rejected: %v", err)
	}
}

func TestCheckColocationRejectsOOM(t *testing.T) {
	ps, err := ProfileAll(model.InferenceApps(), Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	err = CheckColocation(ps, cfg, DefaultAdmissionLimits())
	if !errors.Is(err, sim.ErrOutOfMemory) {
		t.Errorf("error = %v, want ErrOutOfMemory", err)
	}
}

func TestCheckColocationRejectsStarvation(t *testing.T) {
	// One app with a single 3ms monster kernel, one with 5us kernels.
	big := model.Synthetic("monster", 4, 3*sim.Millisecond, 108, 0.3, 1)
	small := model.Synthetic("tiny", 50, 5*sim.Microsecond, 108, 0.3, 2)
	ps, err := ProfileAll([]*model.App{big, small}, Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckColocation(ps, sim.DefaultConfig(), DefaultAdmissionLimits()); err == nil {
		t.Error("starvation-prone pair accepted")
	}
}

func TestCheckColocationRejectsHugeKernel(t *testing.T) {
	huge := model.Synthetic("huge", 3, 20*sim.Millisecond, 108, 0.3, 3)
	ps, err := ProfileAll([]*model.App{huge}, Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckColocation(ps, sim.DefaultConfig(), DefaultAdmissionLimits()); err == nil {
		t.Error("app with 20ms kernel accepted")
	}
}

func TestCheckColocationEmpty(t *testing.T) {
	if err := CheckColocation(nil, sim.DefaultConfig(), DefaultAdmissionLimits()); err == nil {
		t.Error("empty deployment accepted")
	}
}

func TestIsoAtQuota(t *testing.T) {
	p := profR50(t)
	if got, want := p.IsoAtQuota(0.5), p.Iso[8]; got != want {
		t.Errorf("IsoAtQuota(0.5) = %v, want partition value %v", got, want)
	}
	if got, want := p.IsoAtQuota(1.0), p.Iso[17]; got != want {
		t.Errorf("IsoAtQuota(1.0) = %v, want %v", got, want)
	}
}

func TestKernelDurAtUnbounded(t *testing.T) {
	p := profR50(t)
	k := -1
	for i := range p.Kernels {
		if p.Kernels[i].IsCompute && p.Kernels[i].MaxSMs < 80 {
			k = i
			break
		}
	}
	if k < 0 {
		t.Skip("no low-saturation kernel in profile")
	}
	sat := p.Kernels[k].MaxSMs
	// At or below saturation: matches the clamped interpolation.
	if got, want := p.KernelDurAtUnbounded(k, sat), p.KernelDurAt(k, sat); got != want {
		t.Errorf("at saturation: %v vs %v", got, want)
	}
	// Beyond saturation: keeps shrinking hyperbolically.
	beyond := p.KernelDurAtUnbounded(k, 2*sat)
	clamped := p.KernelDurAt(k, 2*sat)
	if beyond >= clamped {
		t.Errorf("unbounded duration %v not below clamped %v beyond saturation", beyond, clamped)
	}
	wantHalf := p.Kernels[k].Dur[p.Partitions-1] / 2
	if diff := beyond - wantHalf; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Errorf("unbounded at 2x saturation = %v, want ~half the saturated duration %v", beyond, wantHalf)
	}
}

// linearKernelDurAt is KernelDurAt with the plain linear bracket search, the
// reference for the guessed-start search.
func linearKernelDurAt(p *Profile, k, sms int) sim.Time {
	kp := &p.Kernels[k]
	if !kp.IsCompute {
		return kp.Dur[len(kp.Dur)-1]
	}
	if sms <= p.PartitionSMs[0] {
		return sim.Time(float64(kp.Dur[0]) * float64(p.PartitionSMs[0]) / float64(max(1, sms)))
	}
	last := len(p.PartitionSMs) - 1
	if sms >= p.PartitionSMs[last] {
		return kp.Dur[last]
	}
	hi := 1
	for p.PartitionSMs[hi] < sms {
		hi++
	}
	lo := hi - 1
	x0, x1 := p.PartitionSMs[lo], p.PartitionSMs[hi]
	y0, y1 := float64(kp.Dur[lo]), float64(kp.Dur[hi])
	return sim.Time(y0 + (y1-y0)*float64(sms-x0)/float64(x1-x0))
}

// linearKernelDurAtUnbounded is KernelDurAtUnbounded over linearKernelDurAt.
func linearKernelDurAtUnbounded(p *Profile, k, sms int) sim.Time {
	kp := &p.Kernels[k]
	if !kp.IsCompute || sms <= kp.MaxSMs {
		return linearKernelDurAt(p, k, sms)
	}
	d := sim.Time(float64(kp.Dur[len(kp.Dur)-1]) * float64(kp.MaxSMs) / float64(sms))
	if d < 1 {
		d = 1
	}
	return d
}

// TestKernelDurAtMatchesLinearScan checks the guessed-start bracket search
// against the linear scan for every SM count in [-1, DeviceSMs+2], on every
// catalog app's profile, a 2-point grid and irregular grids whose points are
// far from the uniform guess.
func TestKernelDurAtMatchesLinearScan(t *testing.T) {
	var profiles []*Profile
	for _, name := range model.Names() {
		p, err := ProfileApp(model.MustGet(name), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		profiles = append(profiles, p)
	}
	synthetic := func(name string, deviceSMs int, grid []int) *Profile {
		p := &Profile{AppName: name, Partitions: len(grid), DeviceSMs: deviceSMs, PartitionSMs: grid}
		for k := 0; k < 4; k++ {
			kp := KernelProfile{MaxSMs: grid[k%len(grid)], IsCompute: k != 3}
			for i := range grid {
				kp.Dur = append(kp.Dur, sim.Time(1000*(k+1)*(len(grid)-i)+7*i*i))
			}
			p.Kernels = append(p.Kernels, kp)
		}
		return p
	}
	profiles = append(profiles,
		synthetic("two-point", 20, []int{10, 20}),
		synthetic("irregular", 108, []int{3, 4, 5, 40, 41, 90, 100, 108}),
		synthetic("clustered-high", 108, []int{96, 100, 104, 106, 107, 108}),
		synthetic("short-of-device", 108, []int{8, 16, 30}),
	)
	for _, p := range profiles {
		for k := range p.Kernels {
			for sms := -1; sms <= p.DeviceSMs+2; sms++ {
				if got, want := p.KernelDurAt(k, sms), linearKernelDurAt(p, k, sms); got != want {
					t.Fatalf("%s kernel %d at %d SMs: KernelDurAt %d, linear scan %d", p.AppName, k, sms, got, want)
				}
				if got, want := p.KernelDurAtUnbounded(k, sms), linearKernelDurAtUnbounded(p, k, sms); got != want {
					t.Fatalf("%s kernel %d at %d SMs: KernelDurAtUnbounded %d, linear scan %d", p.AppName, k, sms, got, want)
				}
			}
		}
	}
}
