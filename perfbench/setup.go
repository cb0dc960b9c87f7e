package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"bless/internal/harness"
	"bless/internal/model"
	"bless/internal/profiler"
	"bless/internal/sim"
)

// setupRuns is how many cold set-ups one run measures; setup_s is their
// median.
const setupRuns = 7

// profileSets maps the colo and fleet workloads to the profiles their
// set-up builds.
var profileSets = map[string]func() []profileKey{
	"colo":  coloProfileSet,
	"fleet": fleetProfileSet,
}

func deviceConfig(sms int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.SMs = sms
	return cfg
}

// warmProfiles builds every profile of set through the harness's
// process-wide profile cache and returns the elapsed time.
func warmProfiles(set []profileKey) (time.Duration, error) {
	t0 := time.Now()
	for _, k := range set {
		if _, err := harness.ProfileFor(k.App, deviceConfig(k.SMs)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// setupChild is the child side of measureSetup: one cold profile-cache
// fill in a fresh process, printed in seconds.
func setupChild(workload string) error {
	set, ok := profileSets[workload]
	if !ok {
		return fmt.Errorf("no set-up for workload %q", workload)
	}
	d, err := warmProfiles(set())
	if err != nil {
		return err
	}
	fmt.Println(d.Seconds())
	return nil
}

// measureSetup runs setupRuns cold set-ups, each in a fresh process so the
// profile cache starts empty, and returns their median in seconds.
func (r *run) measureSetup(workload string) (float64, error) {
	id := r.sp.begin("setup", 0)
	defer r.sp.end(id)
	xs := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		out, err := exec.Command(r.self, "-setup-child", workload).Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		xs = append(xs, s)
	}
	return median(xs), nil
}

// profileProbe times profiler.ProfileApp directly (bypassing the cache)
// over set, three times, and returns the median total in milliseconds.
func (r *run) profileProbe(set []profileKey) (float64, error) {
	id := r.sp.begin("profiler.ProfileApp", 0)
	defer r.sp.end(id)
	var totals []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, k := range set {
			app, err := model.Get(k.App)
			if err != nil {
				return 0, err
			}
			if _, err := profiler.ProfileApp(app, profiler.Options{Config: deviceConfig(k.SMs)}); err != nil {
				return 0, err
			}
		}
		totals = append(totals, ms(time.Since(t0)))
	}
	return median(totals), nil
}
