package harness

import (
	"fmt"
	"strings"
	"testing"

	"bless/internal/chaos"
	"bless/internal/core"
	"bless/internal/sim"
	"bless/internal/snapshot"
)

// Snapshot/restore suite — the wasmd test-sim-import-export /
// test-sim-after-import discipline. The headline guarantee: for any
// seed/scenario/shard count, run-to-T → export → import into a fresh fleet →
// continue produces completion, invariant and checker digests bit-identical
// to the uninterrupted run, including snapshots cut mid-migration,
// mid-fault-retry, and around a device crash.

// snapshotPoints picks the barrier instants the matrix cuts at: early
// (closed loops ramping), the migration trigger instant itself, mid-drain
// (sources draining, exchange records possibly in flight), and late (near
// the horizon under rebalance/autoscale churn).
func snapshotPoints(sc FleetScenario) map[string]sim.Time {
	mig := sc.Migrations[0].At
	return map[string]sim.Time{
		"early":      5 * sim.Millisecond,
		"at-trigger": mig,
		"mid-drain":  mig + 50*sim.Microsecond,
		"late":       sc.Horizon - 7*sim.Millisecond,
	}
}

func mustExport(t *testing.T, sc FleetScenario, at sim.Time) []byte {
	t.Helper()
	data, err := ExportFleet(sc, at)
	if err != nil {
		t.Fatalf("export at %v: %v", at, err)
	}
	return data
}

func mustImport(t *testing.T, data []byte, shards int) *FleetResult {
	t.Helper()
	res, err := ImportFleet(data, shards)
	if err != nil {
		t.Fatalf("import at shards=%d: %v", shards, err)
	}
	return res
}

// TestImportExport proves the export side: a snapshot cut at a barrier is
// decodable, self-consistent, and — because the canonical state excludes
// per-shard internals — bit-identical no matter how many engine shards the
// exporting run used. The mid-drain point must actually catch a migration in
// flight for the matrix to mean anything.
func TestImportExport(t *testing.T) {
	sc := smokeFleetScenario(7)
	for name, at := range snapshotPoints(sc) {
		var ref *snapshot.Snapshot
		for _, shards := range []int{1, 2, 4} {
			run := sc
			run.Shards = shards
			data := mustExport(t, run, at)
			snap, err := snapshot.Decode(data)
			if err != nil {
				t.Fatalf("%s shards=%d: decode: %v", name, shards, err)
			}
			if snap.BarrierAt != at || snap.State.At != at {
				t.Fatalf("%s shards=%d: barrier %v / state %v, want %v", name, shards, snap.BarrierAt, snap.State.At, at)
			}
			if len(snap.State.Tenants) != len(sc.Tenants) {
				t.Fatalf("%s shards=%d: %d tenants in state, want %d", name, shards, len(snap.State.Tenants), len(sc.Tenants))
			}
			if snap.State.Checker == nil {
				t.Fatalf("%s shards=%d: checker state missing", name, shards)
			}
			if ref == nil {
				ref = snap
				continue
			}
			if got, want := snapshot.StateDigest(&snap.State), snapshot.StateDigest(&ref.State); got != want {
				t.Fatalf("%s: state at shards=%d (%016x) differs from shards=1 (%016x) — shard mapping leaked into canonical state",
					name, shards, got, want)
			}
		}
		if name == "mid-drain" {
			draining := 0
			for _, ts := range ref.State.Tenants {
				draining += len(ts.Drains)
			}
			if draining == 0 {
				t.Fatalf("mid-drain snapshot caught no draining residency — the point is mistimed")
			}
		}
	}
}

// TestSimulationAfterImport proves the restore side on the full matrix:
// multi-seed × snapshot point × import shard count, export cut at one count
// and imported at another, always converging to the uninterrupted run's
// completion digest, checker digest and stats, with clean invariants.
func TestSimulationAfterImport(t *testing.T) {
	seeds := []int64{7}
	if !testing.Short() {
		seeds = append(seeds, 11, 23)
	}
	for _, seed := range seeds {
		sc := smokeFleetScenario(seed)
		ref, err := RunFleet(sc)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := ref.Invariants.Err(); err != nil {
			t.Fatalf("seed %d: reference invariants: %v", seed, err)
		}
		for name, at := range snapshotPoints(sc) {
			// Export at 1 shard; in the long matrix also cut at 4 shards —
			// the cross-count import (export@4 → import@2, etc.) is the
			// strongest form of "the mapping is execution strategy".
			exportCounts := []int{1}
			if !testing.Short() && name == "mid-drain" {
				exportCounts = append(exportCounts, 4)
			}
			for _, ec := range exportCounts {
				run := sc
				run.Shards = ec
				data := mustExport(t, run, at)
				for _, shards := range []int{1, 2, 4} {
					got := mustImport(t, data, shards)
					if err := got.Invariants.Err(); err != nil {
						t.Fatalf("seed %d %s export@%d import@%d: invariants: %v", seed, name, ec, shards, err)
					}
					if got.Digest != ref.Digest {
						t.Fatalf("seed %d %s export@%d import@%d: completion digest %016x != uninterrupted %016x",
							seed, name, ec, shards, got.Digest, ref.Digest)
					}
					if got.Invariants.Digest != ref.Invariants.Digest {
						t.Fatalf("seed %d %s export@%d import@%d: checker digest %016x != uninterrupted %016x",
							seed, name, ec, shards, got.Invariants.Digest, ref.Invariants.Digest)
					}
					if got.Stats != ref.Stats {
						t.Fatalf("seed %d %s export@%d import@%d: stats diverge:\n got %+v\nwant %+v",
							seed, name, ec, shards, got.Stats, ref.Stats)
					}
				}
			}
		}
	}
}

// TestSnapshotMidFaultRetry cuts the barrier while kernel-fault retries are
// in flight: the declarative fleet fault plan replays exactly, so a snapshot
// with nonzero retry counters and pending backoff timers must restore and
// converge like any other.
func TestSnapshotMidFaultRetry(t *testing.T) {
	sc := smokeFleetScenario(17)
	sc.Faults = &FleetFaultPlan{Seed: 99, KernelFaultRate: 0.03}
	sc.Repro = "snapshot mid-fault-retry seed 17"
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if err := ref.Invariants.Err(); err != nil {
		t.Fatalf("reference invariants: %v", err)
	}
	at := 30 * sim.Millisecond
	data := mustExport(t, sc, at)
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var faults, retries int64
	for _, d := range snap.State.Devices {
		if d.Runtime != nil {
			faults += d.Runtime.Faults.KernelFaults
			retries += d.Runtime.Faults.Retries
		}
	}
	if faults == 0 || retries == 0 {
		t.Fatalf("barrier at %v caught no fault/retry activity (faults=%d retries=%d) — raise the rate or move the point", at, faults, retries)
	}
	for _, shards := range []int{1, 2, 4} {
		got := mustImport(t, data, shards)
		if err := got.Invariants.Err(); err != nil {
			t.Fatalf("shards=%d: invariants: %v", shards, err)
		}
		if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
			t.Fatalf("shards=%d: digests diverge after mid-fault-retry restore", shards)
		}
	}
}

// TestSnapshotCrashRecovery is the crash-recovery story: a device crashes at
// the migration instant (sources draining, exchange records in flight).
// Restoring from the last pre-crash snapshot replays the crash and converges
// to the reference; restoring from a snapshot cut just *after* the crash —
// dead device in the pool, resubmitted requests outstanding — converges too.
func TestSnapshotCrashRecovery(t *testing.T) {
	base := smokeFleetScenario(13)
	sc := base.WithDeviceCrash(1, base.Migrations[0].At)
	sc.Repro = "snapshot crash recovery seed 13"
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if ref.Stats.DeviceCrashes != 1 || ref.Stats.Resubmitted == 0 {
		t.Fatalf("crash scenario mistimed: %+v", ref.Stats)
	}
	points := map[string]sim.Time{
		"pre-crash":  sc.Migrations[0].At - sim.Millisecond,
		"post-crash": sc.Migrations[0].At + 50*sim.Microsecond,
	}
	for name, at := range points {
		data := mustExport(t, sc, at)
		snap, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		dead := 0
		for _, d := range snap.State.Devices {
			if d.Dead {
				dead++
			}
		}
		if name == "pre-crash" && dead != 0 {
			t.Fatalf("pre-crash snapshot already has %d dead device(s)", dead)
		}
		if name == "post-crash" && dead != 1 {
			t.Fatalf("post-crash snapshot has %d dead devices, want 1", dead)
		}
		for _, shards := range []int{1, 2, 4} {
			got := mustImport(t, data, shards)
			if err := got.Invariants.Err(); err != nil {
				t.Fatalf("%s shards=%d: invariants: %v", name, shards, err)
			}
			if got.Invariants.Lost != 0 {
				t.Fatalf("%s shards=%d: lost %d requests across restore+crash", name, shards, got.Invariants.Lost)
			}
			if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
				t.Fatalf("%s shards=%d: restored run diverges from reference", name, shards)
			}
			if got.Stats != ref.Stats {
				t.Fatalf("%s shards=%d: stats diverge:\n got %+v\nwant %+v", name, shards, got.Stats, ref.Stats)
			}
		}
	}
}

// TestSnapshotQuiescent cuts the barrier past the drain: the snapshot holds
// the final quiescent state and import's continuation is a no-op, still
// reporting the reference digests.
func TestSnapshotQuiescent(t *testing.T) {
	sc := smokeFleetScenario(7)
	ref, err := RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	data := mustExport(t, sc, sc.Horizon+sim.Second)
	got := mustImport(t, data, 2)
	if got.Digest != ref.Digest || got.Invariants.Digest != ref.Invariants.Digest {
		t.Fatal("quiescent snapshot does not restore to the reference digests")
	}
}

// TestVerifyImport covers the one-call proof the CLI and the CI
// snapshot-replay stage use, including its rejection of corrupted input.
func TestVerifyImport(t *testing.T) {
	sc := smokeFleetScenario(7)
	data := mustExport(t, sc, 10*sim.Millisecond)
	v, err := VerifyImport(data, 2)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if v.Snapshot.BarrierAt != 10*sim.Millisecond {
		t.Fatalf("verdict barrier %v, want 10ms", v.Snapshot.BarrierAt)
	}
	if v.Imported.Digest != v.Reference.Digest || v.Imported.Stats != v.Reference.Stats {
		t.Fatal("verdict returned without digest/stat agreement")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] ^= 0x10
	if _, err := VerifyImport(bad, 2); err == nil {
		t.Fatal("corrupted snapshot verified without error")
	}
}

// TestImportNamesDivergence tampers with one tenant's progress in a real
// snapshot and re-seals it: the import proof must refuse the restore and
// name that tenant, not just two differing state digests.
func TestImportNamesDivergence(t *testing.T) {
	data := mustExport(t, smokeFleetScenario(7), 10*sim.Millisecond)
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	victim := &snap.State.Tenants[len(snap.State.Tenants)/2]
	victim.NextSeq++
	tampered, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ImportFleet(tampered, 2)
	if want := fmt.Sprintf("Tenants[%q]", victim.Name); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("tampered import error %v, want it to name %s", err, want)
	}
}

// BenchmarkSnapshotExport is the export hot path under the bench envelope:
// the smoke fleet scenario driven to the mid-horizon barrier and serialized.
func BenchmarkSnapshotExport(b *testing.B) {
	sc := smokeFleetScenario(7)
	at := sc.Horizon / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := ExportFleet(sc, at)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// TestSnapshotRejectsUnserializable pins the export-side refusals: function
// and interface-valued scenario fields cannot cross a process boundary.
func TestSnapshotRejectsUnserializable(t *testing.T) {
	sc := smokeFleetScenario(7)
	sc.Runtime.TraceSquad = func(at sim.Time, squad *core.Squad, cfg core.ExecConfig) {}
	if _, err := ExportFleet(sc, sim.Millisecond); err == nil {
		t.Fatal("scenario with TraceSquad exported without error")
	}
	sc = smokeFleetScenario(7)
	sc.Runtime.Injector = chaos.NewInjector(chaos.Plan{Seed: 1, KernelFaultRate: 0.1})
	if _, err := ExportFleet(sc, sim.Millisecond); err == nil {
		t.Fatal("scenario with a raw Injector exported without error")
	}
	if _, err := ExportFleet(smokeFleetScenario(7), -sim.Millisecond); err == nil {
		t.Fatal("negative barrier exported without error")
	}
}
