#!/bin/sh
# bench_compare.sh — the simulator performance gate: runs the hot-path and
# executor benchmarks and compares them against the committed envelope in
# BENCH_sim.json (see scripts/benchcmp for the exact rules — deterministic
# allocation counts gate exactly, the frozen pre-optimization baseline
# enforces the >=50% allocation drop, ns/op carries a noise tolerance).
#
#   ./scripts/bench_compare.sh              compare against BENCH_sim.json
#   RECORD=1 ./scripts/bench_compare.sh     refresh the recorded values
#   NSOP_TOL=0.25 ./scripts/bench_compare.sh   tighten the ns/op tolerance
set -eu

cd "$(dirname "$0")/.."

out=$(mktemp)
step=$(mktemp)
trap 'rm -f "$out" "$step"' EXIT

# bench <pattern> <package>: run one benchmark invocation, echo its output
# and append it to the comparison transcript. POSIX sh has no pipefail, so a
# plain `go test | tee` would mask a benchmark failure behind tee's exit 0 —
# capture to a file first and propagate go test's status explicitly.
bench() {
    if ! go test -run '^$' -bench "$1" -benchmem "$2" >"$step" 2>&1; then
        cat "$step" >&2
        echo "bench_compare.sh: benchmark $1 in $2 failed" >&2
        exit 1
    fi
    cat "$step"
    cat "$step" >>"$out"
}

echo "== bench: simulator hot path =="
bench 'BenchmarkReschedule$|BenchmarkRescheduleLone$|BenchmarkKernelHotPathUntraced$' ./internal/sim/
echo "== bench: untraced observability fast path (must stay zero-alloc) =="
bench 'BenchmarkUntracedSpanPath$' ./internal/obs/
echo "== bench: experiment batch (serial vs parallel executor) =="
bench 'BenchmarkExperimentBatch' ./internal/harness/
echo "== bench: end-to-end simulator throughput =="
bench 'BenchmarkSimulatorThroughput$' .
echo "== bench: fleet control plane (smoke scenario) =="
bench 'BenchmarkFleetSmoke$' ./internal/harness/
echo "== bench: sharded fleet engine (32-GPU scenario at 1/4/8 shards) =="
bench 'BenchmarkFleetSharded(1|4|8)$' ./internal/harness/
echo "== bench: snapshot export (smoke scenario cut at the mid-horizon barrier) =="
bench 'BenchmarkSnapshotExport$' ./internal/harness/
echo "== bench: serving fast path (steady state must stay zero-alloc) =="
bench 'BenchmarkServeSteadyState$' ./cmd/blessd/internal/planner/

mode=""
if [ -n "${RECORD:-}" ]; then
    mode="-record"
fi
go run ./scripts/benchcmp -baseline BENCH_sim.json -tolerance "${NSOP_TOL:-0.50}" $mode <"$out"
