package main

import (
	"fmt"
	"slices"
	"time"

	"bless/internal/fleet"
	"bless/internal/harness"
)

// fleet: multi-GPU through harness.RunFleet at two shards, plus the
// place-once path through the cluster experiment. One round runs every
// scenario of fleetInputs(seed) once and the cluster experiment once.

// fleetRound is one round's outcome.
type fleetRound struct {
	wall      time.Duration
	scenarios []time.Duration
	stats     []fleet.Stats
	digests   []uint64
}

func (r *run) fleetRoundRun(scs []harness.FleetScenario, cluster harness.Experiment) (fleetRound, error) {
	var out fleetRound
	t0 := time.Now()
	for i, sc := range scs {
		ts := time.Now()
		res, err := harness.RunFleet(sc)
		if err != nil {
			return out, fmt.Errorf("scenario %d: %w", i, err)
		}
		out.scenarios = append(out.scenarios, time.Since(ts))
		out.stats = append(out.stats, res.Stats)
		out.digests = append(out.digests, res.Digest)
	}
	tab, err := cluster.Run(harness.Options{Quick: true})
	if err != nil {
		return out, fmt.Errorf("cluster experiment: %w", err)
	}
	r.check(len(tab.Rows) > 0, "fleet: cluster experiment produced no rows")
	out.wall = time.Since(t0)
	return out, nil
}

// timeFleet runs one scenario and returns its wall time.
func timeFleet(sc harness.FleetScenario) (time.Duration, error) {
	t0 := time.Now()
	_, err := harness.RunFleet(sc)
	return time.Since(t0), err
}

// completed sums the round's completed requests.
func (f fleetRound) completed() int64 {
	var n int64
	for _, s := range f.stats {
		n += s.Completed
	}
	return n
}

func runFleet(r *run) error {
	scs := fleetInputs(r.seed)
	setup, err := r.measureSetup("fleet")
	if err != nil {
		return err
	}
	if _, err := warmProfiles(fleetProfileSet()); err != nil {
		return err
	}

	cluster, err := harness.Lookup("cluster")
	if err != nil {
		return err
	}

	budget := r.budget()
	if r.traced {
		budget /= 2
	}
	var (
		rounds   []fleetRound
		lat      []time.Duration
		roundRPS []float64
	)
	g0 := readGoStats()
	start := time.Now()
	for len(rounds) < 3 || time.Since(start) < budget {
		rd, err := r.fleetRoundRun(scs, cluster)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
		lat = append(lat, rd.scenarios...)
		roundRPS = append(roundRPS, float64(rd.completed())/rd.wall.Seconds())
		for _, s := range rd.stats {
			r.op(s.Routed, s.Routed-s.Completed)
		}
	}
	var completed int64
	ref := rounds[0]
	for _, rd := range rounds {
		completed += rd.completed()
		r.check(slices.Equal(rd.digests, ref.digests), "fleet: a repeated round's completion digests differ from the first round's")
	}
	allocBytes, gcShare := readGoStats().since(g0)
	r.e2e["rss_mb"] = peakRSSMB() // before the checked reruns

	// Output checks: completed + failed == routed; with the fleet checker on,
	// zero violations at one and two shards, equal checker digests, and the
	// timed pass's completion digests at both counts.
	for i, s := range ref.stats {
		r.check(s.Completed+s.Failed == s.Routed, "fleet scenario %d: completed %d + failed %d != routed %d", i, s.Completed, s.Failed, s.Routed)
	}
	for i, sc := range scs {
		var checkerDigest [2]uint64
		for j, shards := range []int{1, fleetShards} {
			c := sc
			c.Invariants = true
			c.Shards = shards
			res, err := harness.RunFleet(c)
			if err != nil {
				return fmt.Errorf("checked scenario %d at %d shards: %w", i, shards, err)
			}
			rep := res.Invariants
			if rep == nil {
				return fmt.Errorf("checked scenario %d: no fleet checker report", i)
			}
			r.check(rep.Ok() && rep.Lost == 0, "fleet scenario %d at %d shards: fleet checker: %v (lost %d)", i, shards, rep.Err(), rep.Lost)
			r.check(res.Digest == ref.digests[i], "fleet scenario %d: completion digest at %d shards %x != timed %x", i, shards, res.Digest, ref.digests[i])
			checkerDigest[j] = rep.Digest
		}
		r.check(checkerDigest[0] == checkerDigest[1], "fleet scenario %d: checker digest at 1 shard %x != at %d shards %x", i, checkerDigest[0], fleetShards, checkerDigest[1])
	}

	latMS := durationsMS(lat)
	r.e2e["setup_s"] = setup
	r.e2e["rps"] = median(roundRPS)
	r.e2e["lat_p50_ms"] = quantile(latMS, 0.5)
	r.e2e["lat_p99_ms"] = tail(latMS)
	fmt.Printf("fleet: %d scenarios x %d rounds, %d latency samples, lat_p99_ms at p%.3g\n",
		len(scs), len(rounds), len(latMS), 100*tailQuantile(len(latMS)))
	if !r.traced {
		return nil
	}

	// The traced phase, under one CPU profile: every scenario runs twice
	// back to back, untraced and inside a span, then the cluster
	// experiment runs in a span. Shard speed-up and invariant cost are
	// paired the same way afterwards.
	r.startTracing()
	prof, err := startCPU()
	if err != nil {
		return err
	}
	var overheads, clusterMS []float64
	start = time.Now()
	for len(overheads) < 3 || time.Since(start) < budget {
		ratio, err := paired(len(scs), func(i int) (time.Duration, error) {
			return timeFleet(scs[i])
		}, func(i int) (time.Duration, error) {
			id := r.sp.begin("harness.RunFleet", 0)
			d, err := timeFleet(scs[i])
			r.sp.end(id)
			return d, err
		})
		if err != nil {
			return err
		}
		overheads = append(overheads, ratio-1)
		id := r.sp.begin("cluster", 0)
		t0 := time.Now()
		if _, err := cluster.Run(harness.Options{Quick: true}); err != nil {
			return fmt.Errorf("cluster experiment: %w", err)
		}
		clusterMS = append(clusterMS, ms(time.Since(t0)))
		r.sp.end(id)
	}
	p, err := prof.stop()
	if err != nil {
		return err
	}
	shares, _ := attribute(p, simBuckets)

	withShards := func(shards int) func(i int) (time.Duration, error) {
		return func(i int) (time.Duration, error) {
			sc := scs[i%len(scs)]
			sc.Shards = shards
			return timeFleet(sc)
		}
	}
	speedup, err := paired(3*len(scs), withShards(fleetShards), withShards(1))
	if err != nil {
		return err
	}
	invX, err := paired(3*len(scs), func(i int) (time.Duration, error) {
		return timeFleet(scs[i%len(scs)])
	}, func(i int) (time.Duration, error) {
		sc := scs[i%len(scs)]
		sc.Invariants = true
		return timeFleet(sc)
	})
	if err != nil {
		return err
	}
	pms, err := r.profileProbe(fleetProfileSet())
	if err != nil {
		return err
	}

	var routed, migrations, epochs int64
	for _, s := range ref.stats {
		routed += s.Routed
		migrations += int64(s.Migrations)
		epochs += s.Epochs
	}
	l := r.layer
	l["profiler.profile_ms"] = pms
	l["sim.cpu_share"] = shares["sim"]
	l["core.cpu_share"] = shares["core"]
	l["go.alloc_kb_per_req"] = allocBytes / 1024 / float64(completed)
	l["go.gc_cpu_share"] = gcShare
	l["fleet.cpu_share"] = shares["fleet"]
	l["fleet.routed"] = float64(routed)
	l["fleet.migrations"] = float64(migrations)
	l["fleet.epochs"] = float64(epochs)
	l["fleet.scenario_ms_p50"] = median(durationsMS(r.sp.durations("harness.RunFleet")))
	l["fleet.shard_speedup"] = speedup
	l["cluster.run_ms"] = median(clusterMS)
	l["invariant.overhead_x"] = invX
	l["obs.trace_overhead"] = median(overheads)
	return nil
}
