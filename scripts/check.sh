#!/bin/sh
# check.sh — the repository's CI gate: formatting, vet, build, the full test
# suite under the race detector (which also runs the harness fuzz test's seed
# corpus), the simulator invariant stage (every experiment verified by
# internal/invariant) and the determinism stage (same-configuration runs must
# fold to identical event digests). Run from anywhere inside the repo.
#
# BASE=<rev> adds a digest-diff stage: the determinism digest corpus must be
# bit-identical to the one at that revision.
#
# SHORT=1 keeps the local gate fast: tests run with -short (reduced trial
# counts) and the invariant stage covers one experiment instead of three.
set -eu

cd "$(dirname "$0")/.."

# Preflight: fail fast with a real message instead of dying mid-gate on the
# first `go` invocation. `command -v` covers a missing toolchain; the version
# probe covers a toolchain that exists but cannot run (e.g. the go.mod
# toolchain directive needs a download and the module cache / GOTOOLCHAIN
# area is cold or read-only).
if ! command -v go >/dev/null 2>&1; then
    echo "check.sh: 'go' not found on PATH — install the Go toolchain (go.mod pins the version)" >&2
    exit 1
fi
if ! go version >/dev/null 2>&1; then
    echo "check.sh: 'go version' failed — the toolchain pinned by go.mod may need a download and the cache is cold; run 'go version' by hand to see why" >&2
    exit 1
fi
if ! command -v gofmt >/dev/null 2>&1; then
    echo "check.sh: 'gofmt' not found on PATH — it ships with the Go toolchain" >&2
    exit 1
fi

SHORT="${SHORT:-}"
short_flag=""
if [ -n "$SHORT" ]; then
    short_flag="-short"
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race $short_flag ./...

echo "== invariants =="
# Replay representative experiments with the invariant checker enforcing the
# universal classes (SM conservation, event order/FIFO) on every run.
if [ -n "$SHORT" ]; then
    go run ./cmd/blessbench -invariants -quick -exp fig1
else
    for e in fig1 fig12 fig16; do
        go run ./cmd/blessbench -invariants -quick -exp "$e"
    done
fi

echo "== observability goldens =="
# Exported formats are byte-stable: Chrome trace, Prometheus exposition and
# the per-tenant SLO JSON must match their committed goldens exactly
# (refresh intentionally with: go test ./internal/obs/ -run Golden -update-golden).
go test -run 'TestChromeTraceGolden|TestPrometheusGolden|TestSLOJSONGolden' -count=1 ./internal/obs/

echo "== fleet control plane =="
# The fleet smoke gate: 24 tenants over a 4-device heterogeneous pool with
# live migration, rebalancing and autoscaling; fails unless every fleet
# invariant passes and the digest is bit-identical across serial, parallel
# and migration-order-permuted runs.
go run ./cmd/blessbench -fleet -smoke

echo "== fleet shard determinism =="
# The sharded engine gate: the smoke fleet scenario (with a device crash
# timed mid-migration) run on 1 shard, on 4 engine shards, and with the
# device→shard mapping reversed must produce bit-identical completion and
# checker digests. CI runs the full-scale matrix at 1/2/4/8 shards.
go run ./cmd/blessbench -fleet -smoke -shards 4

echo "== snapshot replay =="
# The snapshot/restore gate, across a real process boundary: export the smoke
# fleet scenario at the mid-horizon barrier, then restore it in a separate
# process — the import replays the embedded scenario to the barrier, proves
# the replayed state byte-identical to the snapshot's state section,
# continues to completion, and fails unless completion digest, checker digest
# and stats match an uninterrupted run (here at a different shard count).
snap_file=$(mktemp)
trap 'rm -f "$snap_file"' EXIT
go run ./cmd/blessbench -fleet -smoke -snapshot "$snap_file"
go run ./cmd/blessbench -snapshot-import "$snap_file" -shards 2
rm -f "$snap_file"

echo "== snapshot fuzz =="
# Hostile snapshot bytes: Decode must never panic, and whatever it accepts
# must re-encode to a fixed point (internal/snapshot FuzzDecode).
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/snapshot/

echo "== serving front end =="
# The serving-path smoke gate over real TCP: blessd boots, blessload proves
# serial-vs-concurrent digest identity (under load shed) and runs a
# closed-loop ramp to the shed knee with first-step shed, §6.9 overhead and
# throughput enforcement.
if [ -n "$SHORT" ]; then
    DUR=1s MIN_RPS=5000 ./scripts/service_load.sh
else
    ./scripts/service_load.sh
fi

echo "== determinism =="
# Same-seed runs must produce byte-identical event digests, and the
# metamorphic relations (client permutation, quota scaling) must hold.
go test -run 'TestDeterminismDigest|TestMetamorphicInvariantVerdicts' -count=1 $short_flag ./internal/harness/

if [ -n "${BASE:-}" ]; then
    echo "== digest diff against $BASE =="
    # Bit-identity to a base revision: the digest corpus must fold to the
    # same 60 digests here and at BASE (see scripts/digest_diff.sh).
    BASE="$BASE" ./scripts/digest_diff.sh
fi

echo "OK"
