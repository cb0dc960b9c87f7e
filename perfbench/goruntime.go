package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
)

// goStats is a reading of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: f(0), gcCPU: f(1), totalCPU: f(2)}
}

// since returns the allocation bytes and the GC share of CPU time between
// two readings.
func (g goStats) since(prev goStats) (allocBytes, gcShare float64) {
	allocBytes = g.allocBytes - prev.allocBytes
	if cpu := g.totalCPU - prev.totalCPU; cpu > 0 {
		gcShare = (g.gcCPU - prev.gcCPU) / cpu
	}
	return allocBytes, gcShare
}

// cpuCapture records this process's CPU profile between start and stop.
type cpuCapture struct{ buf bytes.Buffer }

func startCPU() (*cpuCapture, error) {
	c := &cpuCapture{}
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return c, nil
}

func (c *cpuCapture) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return parseCPUProfile(c.buf.Bytes())
}

// simBuckets attribute the benchmark process's CPU time to the layers the
// colo and fleet workloads run in-process.
var simBuckets = []bucket{
	{"sim", []string{"bless/internal/sim"}},
	{"core", []string{"bless/internal/core"}},
	{"fleet", []string{"bless/internal/fleet", "bless/internal/cluster"}},
	{"profiler", []string{"bless/internal/profiler"}},
	{"obs", []string{"bless/internal/obs"}},
	{"invariant", []string{"bless/internal/invariant"}},
	{"harness", []string{"bless/internal"}},
}

// serveBuckets attribute blessd's CPU time: the admission decision (core),
// the planner's intake machinery, the debug server answering the profile
// request itself, and the net/rpc transport with its encoding and syscalls.
var serveBuckets = []bucket{
	{"sched", []string{"bless/internal/core"}},
	{"planner", []string{"bless/cmd/blessd", "bless/internal"}},
	{"debug", []string{"net/http", "runtime/pprof", "expvar"}},
	{"rpc", []string{"net", "encoding/gob", "internal/poll", "bufio", "syscall"}},
}
