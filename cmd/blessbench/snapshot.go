package main

import (
	"fmt"
	"os"
	"time"

	"bless/internal/harness"
	"bless/internal/sim"
	"bless/internal/snapshot"
)

// runSnapshotExport is -fleet -snapshot FILE: run the fleet scenario (smoke
// or full scale, like -fleet itself) to a virtual-time barrier, cut the
// canonical snapshot there, and write it to FILE. The barrier defaults to
// half the horizon — mid-run, with migrations and rebalancing in flight —
// and -snapshot-at overrides it in virtual milliseconds.
//
// The exported bytes are process-independent: restore them with
// `blessbench -snapshot-import FILE` (any -shards count) or feed them to
// blessd's Planner.Restore.
func runSnapshotExport(path string, smoke bool, seed int64, shards int, atMS float64) error {
	tenants, devices, horizon := 200, 32, 250*sim.Millisecond
	if smoke {
		tenants, devices, horizon = 24, 4, 60*sim.Millisecond
	}
	sc := harness.FleetScenarioN(seed, tenants, devices, horizon)
	if shards > 0 {
		sc.Shards = shards
	}
	smokeFlag := ""
	if smoke {
		smokeFlag = " -smoke"
	}
	sc.Repro = fmt.Sprintf("go run ./cmd/blessbench -fleet%s -seed %d -snapshot FILE", smokeFlag, seed)

	at := sim.Time(atMS * float64(sim.Millisecond))
	if at <= 0 {
		at = horizon / 2
	}
	start := time.Now()
	data, err := harness.ExportFleet(sc, at)
	if err != nil {
		return fmt.Errorf("snapshot export: %w", err)
	}
	wall := time.Since(start)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("snapshot export: %w", err)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return fmt.Errorf("snapshot export: re-decoding fresh snapshot: %w", err)
	}
	fmt.Printf("snapshot: %d tenants over %d devices cut at %v (horizon %v), wall %v\n",
		len(sc.Tenants), len(sc.Devices), at, horizon, wall.Round(time.Millisecond))
	fmt.Printf("  %s: %d bytes, format v%d, state digest %016x\n",
		path, len(data), snapshot.Version, snapshot.StateDigest(&snap.State))
	fmt.Printf("  restore: go run ./cmd/blessbench -snapshot-import %s\n", path)
	return nil
}

// runSnapshotImport is -snapshot-import FILE: the cross-process restore
// proof. The snapshot's embedded scenario is replayed to the barrier, the
// replayed state compared byte-for-byte against the snapshot's state section,
// the run continued to completion, and the final digests checked against an
// uninterrupted replay of the same scenario. -shards overrides the replay's
// engine-shard count (0 = the exporting run's count); either way the digests
// must not move.
func runSnapshotImport(path string, shards int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("snapshot import: %w", err)
	}
	start := time.Now()
	v, err := harness.VerifyImport(data, shards)
	if err != nil {
		return fmt.Errorf("snapshot import %s: %w", path, err)
	}
	wall := time.Since(start)
	snap := v.Snapshot
	sc, err := harness.SnapshotScenario(snap)
	if err != nil {
		return fmt.Errorf("snapshot import %s: %w", path, err)
	}
	replayShards := shards
	if replayShards <= 0 {
		replayShards = sc.Shards
	}
	st := v.Imported.Stats
	fmt.Printf("snapshot import: %s (%d bytes) — barrier %v, exported at %d shard(s), replayed at %d, wall %v\n",
		path, len(data), snap.BarrierAt, sc.Shards, replayShards, wall.Round(time.Millisecond))
	fmt.Printf("  replay proof: state at %v byte-identical (digest %016x)\n",
		snap.BarrierAt, snapshot.StateDigest(&snap.State))
	fmt.Printf("  routed %d  completed %d  failed %d  | migrations %d  rebalances %d  crashes %d\n",
		st.Routed, st.Completed, st.Failed, st.Migrations, st.Rebalances, st.DeviceCrashes)
	fmt.Printf("  digests: completion %016x", v.Imported.Digest)
	if v.Imported.Invariants != nil {
		fmt.Printf("  checker %016x", v.Imported.Invariants.Digest)
	}
	fmt.Printf(" — identical to the uninterrupted run ✓\n")
	return nil
}
