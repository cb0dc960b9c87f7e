package main

import (
	"fmt"
	"math/rand"
	"sort"

	"bless/internal/harness"
	"bless/internal/serveapi"
	"bless/internal/sim"
	"bless/internal/trace"
)

// Inputs are pure functions of the workload seed. Load levels are sized
// against a fixed table of full-GPU solo latencies rather than against the
// program's own profiles, so a change to the profiler cannot change what
// the benchmark offers.

// coloApps is the co-location catalog pool with each app's full-GPU solo
// latency (ms): five inference models and three training jobs.
var coloApps = []struct {
	name   string
	soloMS float64
}{
	{"vgg11", 10.2}, {"resnet50", 8.7}, {"resnet101", 17.2}, {"nasnet", 32.7},
	{"bert", 12.8}, {"vgg11-train", 11.2}, {"resnet50-train", 25.2}, {"resnet101-train", 40.1},
}

const (
	// A colo block holds coloPerSize sessions of each size from 2 to 8
	// clients, and a pass runs coloBlocks blocks; coloHorizon is each
	// session's virtual arrival window.
	coloPerSize = 8
	coloBlocks  = 20
	coloHorizon = 250 * sim.Millisecond

	// fleetScenarios is the size of one fleet round.
	fleetScenarios = 3
	fleetTenants   = 48
	fleetDevices   = 8
	fleetHorizon   = 250 * sim.Millisecond
	fleetShards    = 2
)

// coloSession is one single-GPU co-location run: its clients carry explicit
// arrival schedules.
type coloSession struct {
	Load    float64
	Clients []harness.ClientSpec
}

// coloInputs generates one pass of sessions: coloBlocks stratified blocks.
// In a block every size from 2 to 8 clients appears coloPerSize times;
// within a size, cyclic windows over a seeded permutation give every app
// every quota rank exactly once; load levels cover 0.5–0.9 evenly (one
// seeded draw per stratum); and half the sessions are bursty. The seed
// decides who shares a GPU with whom, the quota jitter, the exact loads and
// every arrival instant.
func coloInputs(seed int64) []coloSession {
	rng := rand.New(rand.NewSource(seed))
	var out []coloSession
	for b := 0; b < coloBlocks; b++ {
		out = append(out, coloBlock(rng)...)
	}
	return out
}

func coloBlock(rng *rand.Rand) []coloSession {
	var out []coloSession
	for n := 2; n <= 8; n++ {
		perm := rng.Perm(len(coloApps))
		loads := rng.Perm(coloPerSize)
		bursty := rng.Perm(coloPerSize)
		for j := 0; j < coloPerSize; j++ {
			apps := make([]int, n)
			for k := range apps {
				apps[k] = perm[(j+k)%len(coloApps)]
			}
			load := 0.5 + 0.4*(float64(loads[j])+rng.Float64())/coloPerSize
			out = append(out, coloSessionFor(rng, apps, load, bursty[j]%2 == 1))
		}
	}
	return out
}

func coloSessionFor(rng *rand.Rand, apps []int, load float64, bursty bool) coloSession {
	quotas := skewedQuotas(rng, len(apps))
	s := coloSession{Load: load, Clients: make([]harness.ClientSpec, len(apps))}
	for i, ai := range apps {
		a := coloApps[ai]
		// Linear-scaling capacity: quota / solo latency.
		count := int(load*quotas[i]/a.soloMS*coloHorizon.Milliseconds() + 0.5)
		var arr []sim.Time
		if bursty {
			arr = burstyArrivals(rng, count, a.soloMS, coloHorizon)
		} else {
			arr = uniformArrivals(rng, count, coloHorizon)
		}
		s.Clients[i] = harness.ClientSpec{App: a.name, Quota: quotas[i], Pattern: trace.Pattern{Arrivals: arr}}
	}
	return s
}

// skewedQuotas returns n quotas in whole percent summing to exactly 100%,
// skewed by rank (Zipf: rank k weighs 1/(k+1)), each at least 6%, then
// jittered by moving up to two points between random pairs of ranks.
func skewedQuotas(rng *rand.Rand, n int) []float64 {
	const minPct = 6
	var wsum float64
	for k := 0; k < n; k++ {
		wsum += 1 / float64(k+1)
	}
	spare := 100 - minPct*n
	pct := make([]int, n)
	left := 100
	for k := range pct {
		pct[k] = minPct + int(float64(spare)/float64(k+1)/wsum)
		left -= pct[k]
	}
	pct[0] += left
	for i := 0; i < n; i++ {
		from, to, d := rng.Intn(n), rng.Intn(n), 1+rng.Intn(2)
		if pct[from]-d >= minPct {
			pct[from] -= d
			pct[to] += d
		}
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = float64(pct[k]) / 100
	}
	return out
}

// uniformArrivals places count arrivals uniformly at random in the horizon:
// a Poisson process conditioned on its count. The empty schedule is an
// explicit empty slice, since a nil Arrivals would make the pattern
// closed-loop.
func uniformArrivals(rng *rand.Rand, count int, horizon sim.Time) []sim.Time {
	arr := make([]sim.Time, count)
	for i := range arr {
		arr[i] = sim.Time(rng.Int63n(int64(horizon)))
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
	return arr
}

// burstyArrivals is Azure-shaped: count arrivals in geometric bursts (mean
// 4) at uniformly random instants, each burst's requests a quarter of the
// solo latency apart on average.
func burstyArrivals(rng *rand.Rand, count int, soloMS float64, horizon sim.Time) []sim.Time {
	const meanBurst = 4.0
	gap := soloMS / 4 * float64(sim.Millisecond)
	arr := make([]sim.Time, 0, count)
	for len(arr) < count {
		t := float64(rng.Int63n(int64(horizon)))
		for k := 0; len(arr) < count && (k == 0 || rng.Float64() < 1-1/meanBurst); k++ {
			arr = append(arr, sim.Time(t))
			t += rng.ExpFloat64() * gap
		}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
	return arr
}

// fleetInputs generates one round of fleet scenarios: the canonical
// scenario at 48 tenants over eight heterogeneous devices, each under its
// own control-plane seed drawn from the workload seed.
func fleetInputs(seed int64) []harness.FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	out := make([]harness.FleetScenario, fleetScenarios)
	for i := range out {
		sc := harness.FleetScenarioN(rng.Int63(), fleetTenants, fleetDevices, fleetHorizon)
		sc.Shards = fleetShards
		sc.Invariants = false
		out[i] = sc
	}
	return out
}

// fleetProfileSet lists the (app, SM class) pairs a fleet round profiles.
func fleetProfileSet() []profileKey {
	var out []profileKey
	for _, sms := range []int{108, 80, 60} {
		for _, a := range []string{"vgg11", "resnet50", "resnet101", "bert"} {
			out = append(out, profileKey{a, sms})
		}
	}
	return out
}

// serveApps are the inference apps the serve tenants draw from.
var serveApps = coloApps[:5]

// serveInputs generates the serve deployment: two in-quota tenants offered
// 0.5–0.9 of their linear-scaling quota rate (never shed), and two offered
// about four times theirs (the shed path).
func serveInputs(seed int64) []serveapi.ServeTenant {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(serveApps))
	out := make([]serveapi.ServeTenant, 4)
	for i := range out {
		a := serveApps[perm[i]]
		overloaded := i >= 2
		quota := 0.2 + 0.05*float64(rng.Intn(3))
		load := 0.5 + 0.4*rng.Float64()
		if overloaded {
			quota = 0.1 + 0.05*float64(rng.Intn(2))
			load = 4
		}
		out[i] = serveapi.ServeTenant{
			Name:    fmt.Sprintf("%s-%d", a.name, i),
			App:     a.name,
			Quota:   quota,
			RateRPS: load * quota / a.soloMS * 1000,
		}
	}
	return out
}

// inQuota reports whether serve tenant i is one of the in-quota pair.
func inQuota(i int) bool { return i < 2 }

// profileKey is one (app, device SM count) profiling unit.
type profileKey struct {
	App string
	SMs int
}

// coloProfileSet lists the apps colo profiles, all on the default device.
func coloProfileSet() []profileKey {
	out := make([]profileKey, len(coloApps))
	for i, a := range coloApps {
		out[i] = profileKey{a.name, 108}
	}
	return out
}

// serveProfileSet lists the serve tenants' apps on the default device.
func serveProfileSet(tenants []serveapi.ServeTenant) []profileKey {
	out := make([]profileKey, len(tenants))
	for i, t := range tenants {
		out[i] = profileKey{t.App, 108}
	}
	return out
}
