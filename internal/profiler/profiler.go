// Package profiler implements BLESS's offline profiling stage (§4.2).
//
// For each application provisioned some percentage of the GPU, the profiler
// measures the isolated latency T[n%] under an MPS SM restriction, the
// per-kernel duration t[n%][k], the cumulative duration from request start to
// the end of kernel k (tau[n%][k]), and each kernel's maximum active SM share
// (d%). The GPU is split into N partitions (N=18 on an A100: 6%, 12%, ...,
// 100%) to bound both the profiling cost and the runtime configuration search
// space. Profiling complexity for M applications is O(MN).
//
// The profiler treats applications as black boxes: it replays their kernel
// sequence through the simulator exactly as a client would (asynchronous
// wholesale launches into one restricted queue) and records observed timings.
// Scheduler-side code consumes only Profile data, never model internals —
// the same information boundary as the paper's CUDA-event-based profiler.
package profiler

import (
	"fmt"

	"bless/internal/model"
	"bless/internal/sim"
)

// DefaultPartitions is the paper's empirical N for the A100 (§4.2.1).
const DefaultPartitions = 18

// KernelProfile holds the measured statistics for one kernel across all SM
// partitions.
type KernelProfile struct {
	// Dur[p] is t[n%][k]: the kernel's duration with partition p+1 of N
	// (i.e. (p+1)/N of the GPU's SMs).
	Dur []sim.Time
	// Cum[p] is tau[n%][k]: time from request start to the end of this
	// kernel at partition p+1.
	Cum []sim.Time
	// MaxSMs is the maximum active SM count observed (full-GPU run); MaxSMs
	// over the device SM count is the paper's d%.
	MaxSMs int
	// IsCompute distinguishes compute kernels from memory-management
	// kernels (H2D/D2H), which the estimators account separately.
	IsCompute bool
}

// Profile is the offline-measured description of one application.
type Profile struct {
	// AppName is the profiled application's name.
	AppName string
	// Partitions is N, the number of SM partitions measured.
	Partitions int
	// DeviceSMs is the SM count of the profiling GPU (must match runtime).
	DeviceSMs int
	// PartitionSMs[p] is the SM count of partition p+1 (6, 12, ..., 108).
	PartitionSMs []int
	// Iso[p] is T[n%]: the isolated request latency at partition p+1.
	Iso []sim.Time
	// Kernels holds per-kernel statistics, in request order.
	Kernels []KernelProfile
	// MemoryBytes is the application's device memory requirement.
	MemoryBytes int64
	// Cost is the virtual time the profiling runs consumed (Table 1 reports
	// 0.38s-6.9s per application).
	Cost sim.Time
}

// NumKernels returns the profiled kernel count.
func (p *Profile) NumKernels() int { return len(p.Kernels) }

// PartitionFor returns the index of the smallest partition with at least the
// given SM count, clamped to the largest partition.
func (p *Profile) PartitionFor(sms int) int {
	for i, ps := range p.PartitionSMs {
		if ps >= sms {
			return i
		}
	}
	return len(p.PartitionSMs) - 1
}

// QuotaPartition returns the partition index for a fractional quota in (0,1].
func (p *Profile) QuotaPartition(quota float64) int {
	idx := int(quota*float64(p.Partitions)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= p.Partitions {
		idx = p.Partitions - 1
	}
	return idx
}

// IsoAtQuota returns T[n%] for a fractional quota.
func (p *Profile) IsoAtQuota(quota float64) sim.Time {
	return p.Iso[p.QuotaPartition(quota)]
}

// KernelDurAt returns the kernel's duration at an arbitrary SM count by
// linear interpolation between the measured partition grid points. Counts at
// or beyond the device size clamp to the full-GPU measurement; the paper
// interpolates identically when a kernel "cannot utilize so many SMs".
func (p *Profile) KernelDurAt(k, sms int) sim.Time {
	kp := &p.Kernels[k]
	if !kp.IsCompute {
		return kp.Dur[len(kp.Dur)-1]
	}
	if sms <= p.PartitionSMs[0] {
		// Below the smallest measured partition: scale up conservatively
		// (duration is inversely proportional to SMs in this regime).
		d := float64(kp.Dur[0]) * float64(p.PartitionSMs[0]) / float64(max(1, sms))
		return sim.Time(d)
	}
	last := len(p.PartitionSMs) - 1
	if sms >= p.PartitionSMs[last] {
		return kp.Dur[last]
	}
	// Find the surrounding grid points: hi is the first partition with at
	// least sms SMs. On the uniform grid the guess is at most one step off;
	// the walks make it exact on any sorted grid.
	hi := 1
	if p.DeviceSMs > 0 {
		hi = min(max(sms*len(p.PartitionSMs)/p.DeviceSMs, 1), last)
	}
	for p.PartitionSMs[hi] < sms {
		hi++
	}
	for p.PartitionSMs[hi-1] >= sms {
		hi--
	}
	lo := hi - 1
	x0, x1 := p.PartitionSMs[lo], p.PartitionSMs[hi]
	y0, y1 := float64(kp.Dur[lo]), float64(kp.Dur[hi])
	frac := float64(sms-x0) / float64(x1-x0)
	return sim.Time(y0 + (y1-y0)*frac)
}

// KernelDurAtUnbounded is KernelDurAt without the saturation clamp: beyond
// the kernel's maximum active SM count the duration keeps shrinking as
// MaxSMs/sms of the saturated duration. The workload-equivalence predictor
// (Equation 2) uses this to model an overlapped kernel group as sequential
// execution in which every kernel occupies ALL the group's active SMs — the
// paper notes the duration "is interpolated if [the kernel] cannot utilize so
// many SMs".
func (p *Profile) KernelDurAtUnbounded(k, sms int) sim.Time {
	kp := &p.Kernels[k]
	if !kp.IsCompute || sms <= kp.MaxSMs {
		return p.KernelDurAt(k, sms)
	}
	sat := kp.Dur[len(kp.Dur)-1] // saturated (full-GPU) duration
	d := sim.Time(float64(sat) * float64(kp.MaxSMs) / float64(sms))
	if d < 1 {
		d = 1
	}
	return d
}

// Options configures a profiling run.
type Options struct {
	// Partitions is N (default 18).
	Partitions int
	// Config is the device to profile on (default DefaultConfig). The paper
	// requires the profiling GPU to match the runtime GPU model.
	Config sim.Config
}

// ProfileApp measures one application. Deterministic: profiling the same app
// twice yields identical data.
func ProfileApp(app *model.App, opts Options) (*Profile, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	n := opts.Partitions
	if n <= 0 {
		n = DefaultPartitions
	}
	cfg := opts.Config
	if cfg.SMs == 0 {
		cfg = sim.DefaultConfig()
	}
	if cfg.SMs < n {
		return nil, fmt.Errorf("profiler: %d partitions on a %d-SM device", n, cfg.SMs)
	}

	prof := &Profile{
		AppName:      app.Name,
		Partitions:   n,
		DeviceSMs:    cfg.SMs,
		PartitionSMs: make([]int, n),
		Iso:          make([]sim.Time, n),
		Kernels:      make([]KernelProfile, len(app.Kernels)),
		MemoryBytes:  app.MemoryBytes,
	}
	for p := 0; p < n; p++ {
		prof.PartitionSMs[p] = cfg.SMs * (p + 1) / n
	}
	for k := range prof.Kernels {
		prof.Kernels[k].Dur = make([]sim.Time, n)
		prof.Kernels[k].Cum = make([]sim.Time, n)
		prof.Kernels[k].IsCompute = app.Kernels[k].IsCompute()
	}

	// One full-GPU warm-up run records d% (max active SM usage), then one
	// run per partition records kernel durations — N+1 runs total (§4.2.1).
	warm := runSolo(app, cfg, cfg.SMs)
	prof.Cost += warm.total
	for k := range prof.Kernels {
		prof.Kernels[k].MaxSMs = warm.maxSMs[k]
	}
	for p := 0; p < n; p++ {
		r := runSolo(app, cfg, prof.PartitionSMs[p])
		prof.Cost += r.total
		prof.Iso[p] = r.total
		for k := range prof.Kernels {
			prof.Kernels[k].Dur[p] = r.dur[k]
			prof.Kernels[k].Cum[p] = r.cum[k]
		}
	}
	return prof, nil
}

// soloRun holds one measured isolated execution.
type soloRun struct {
	total  sim.Time
	dur    []sim.Time
	cum    []sim.Time
	maxSMs []int
}

// runSolo replays the application alone on a fresh simulated device with an
// SM-restricted context, measuring per-kernel timings the way CUDA events
// would: kernel duration excludes queue wait, cumulative time includes it.
func runSolo(app *model.App, cfg sim.Config, smLimit int) soloRun {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, cfg)
	ctx, err := gpu.NewContext(sim.ContextOptions{SMLimit: smLimit, Label: "profile", NoMemCharge: true})
	if err != nil {
		panic(err) // smLimit validated by caller
	}
	q := ctx.NewQueue("profile")
	host := sim.NewHost(gpu)

	nk := len(app.Kernels)
	run := soloRun{
		dur:    make([]sim.Time, nk),
		cum:    make([]sim.Time, nk),
		maxSMs: make([]int, nk),
	}
	arrive := make([]sim.Time, nk)
	end := make([]sim.Time, nk)
	for i := range app.Kernels {
		i := i
		k := &app.Kernels[i]
		host.Launch(q, k, func(at sim.Time) { end[i] = at })
		arrive[i] = host.Now()
		run.maxSMs[i] = k.SMDemand(smLimit, cfg.SMs)
	}
	eng.Run()

	var prevEnd sim.Time
	for i := range app.Kernels {
		start := arrive[i]
		if prevEnd > start {
			start = prevEnd
		}
		run.dur[i] = end[i] - start
		run.cum[i] = end[i]
		prevEnd = end[i]
	}
	run.total = end[nk-1]
	return run
}

// ProfileAll profiles a set of applications, returning profiles in input
// order.
func ProfileAll(apps []*model.App, opts Options) ([]*Profile, error) {
	out := make([]*Profile, len(apps))
	for i, a := range apps {
		p, err := ProfileApp(a, opts)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
