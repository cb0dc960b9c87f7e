#!/bin/sh
# service_load.sh — the serving-path smoke gate: build blessd and blessload,
# boot the daemon, and run the two blessload gates against it over real TCP:
#
#   1. the determinism gate (-verify): identical per-tenant request streams
#      from serial and pipelined-concurrent clients — overloaded enough to
#      shed — must fold to bit-identical digests;
#   2. the closed-loop ramp (-check): capacity-relative rate ladder up to the
#      shed knee, failing on first-step (in-quota) shedding, on per-decision
#      scheduler cost above the §6.9 budget, on serve-invariant violations,
#      or on sustained throughput below MIN_RPS.
#
#   ./scripts/service_load.sh                 full gate (MIN_RPS=10000)
#   DUR=1s MIN_RPS=5000 ./scripts/service_load.sh   faster local variant
set -eu

cd "$(dirname "$0")/.."

PORT="${PORT:-7641}"
DUR="${DUR:-2s}"
MIN_RPS="${MIN_RPS:-10000}"
STEPS="${STEPS:-4}"

bindir=$(mktemp -d)
blessd_pid=""
cleanup() {
    if [ -n "$blessd_pid" ]; then
        kill "$blessd_pid" 2>/dev/null || true
    fi
    rm -rf "$bindir"
}
trap cleanup EXIT

echo "== build blessd + blessload =="
go build -o "$bindir/blessd" ./cmd/blessd
go build -o "$bindir/blessload" ./cmd/blessload

echo "== boot blessd on 127.0.0.1:$PORT =="
"$bindir/blessd" -listen "127.0.0.1:$PORT" &
blessd_pid=$!

# Readiness: the daemon listens before accepting, so the first dial that
# succeeds means it is up; retry briefly to cover process startup.
i=0
until "$bindir/blessload" -addr "127.0.0.1:$PORT" -verify -verify-requests 100 >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 25 ]; then
        echo "service_load.sh: blessd did not come up on 127.0.0.1:$PORT" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== digest gate: serial vs pipelined-concurrent clients (under load shed) =="
"$bindir/blessload" -addr "127.0.0.1:$PORT" -verify -verify-requests 4000

echo "== closed-loop ramp to the shed knee =="
"$bindir/blessload" -addr "127.0.0.1:$PORT" -steps "$STEPS" -duration "$DUR" \
    -check -min-rps "$MIN_RPS"

echo "OK"
