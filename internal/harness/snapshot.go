package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bless/internal/sim"
	"bless/internal/snapshot"
)

// Snapshot export/import: the harness front-end to the snapshot wire format.
//
// ExportFleet runs a scenario to a virtual-time barrier and serializes the
// fleet's complete observable logical state together with the generating
// scenario, which travels as this package's own FleetScenario in JSON.
// ImportFleet rebuilds the run in a fresh process by replaying the embedded
// scenario to the same barrier — pending engine events are closures and
// cannot cross a process boundary, so replay is how they are reconstructed —
// then *proves* the reconstruction by re-exporting at the barrier and
// comparing the canonical state encoding against the snapshot's state
// section. Any serialization drift, schema skew, or cross-process
// nondeterminism fails the import, naming the first differing part of the
// state, before the run continues; after the proof the run continues to
// completion and the caller compares final digests against an uninterrupted
// reference (the test-sim-import-export / test-sim-after-import discipline).

// ExportFleet drives the scenario to the virtual-time barrier at, cuts a
// snapshot there, and returns its canonical encoding. The barrier is forced
// at exactly at (digest-neutral — it only splits lock-step windows); a
// scenario that drains before at exports its final quiescent state.
//
// Function-valued scenario fields cannot be serialized: a non-nil
// Runtime.TraceSquad or Runtime.Injector is an error, and ShardOf (pure
// execution strategy, digest-invariant by the shard metamorphic suite) is
// dropped rather than captured.
func ExportFleet(sc FleetScenario, at sim.Time) ([]byte, error) {
	if at < 0 {
		return nil, fmt.Errorf("harness: snapshot barrier %v is negative", at)
	}
	if sc.Runtime.TraceSquad != nil {
		return nil, fmt.Errorf("harness: scenario with Runtime.TraceSquad cannot be snapshotted (functions do not serialize)")
	}
	if sc.Runtime.Injector != nil {
		return nil, fmt.Errorf("harness: scenario with Runtime.Injector cannot be snapshotted (injectors do not serialize)")
	}
	f, _, horizon, err := buildFleet(sc)
	if err != nil {
		return nil, err
	}
	if err := f.Begin(horizon); err != nil {
		return nil, err
	}
	defer f.Finish()
	if _, err := f.RunTo(at); err != nil {
		return nil, err
	}
	st, err := f.ExportState()
	if err != nil {
		return nil, err
	}
	sc.Horizon = horizon
	sc.Shards = max(sc.Shards, 1)
	scenario, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding snapshot scenario: %w", err)
	}
	return snapshot.Encode(&snapshot.Snapshot{BarrierAt: at, Scenario: scenario, State: *st})
}

// SnapshotScenario decodes the scenario a snapshot embeds. Fields this
// build's FleetScenario does not have are rejected, never dropped.
func SnapshotScenario(snap *snapshot.Snapshot) (FleetScenario, error) {
	var sc FleetScenario
	dec := json.NewDecoder(bytes.NewReader(snap.Scenario))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return FleetScenario{}, fmt.Errorf("harness: snapshot scenario: %w", err)
	}
	return sc, nil
}

// decodeSnapshot decodes a snapshot and its embedded scenario.
func decodeSnapshot(data []byte) (*snapshot.Snapshot, FleetScenario, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, FleetScenario{}, err
	}
	sc, err := SnapshotScenario(snap)
	return snap, sc, err
}

// ImportFleet restores a snapshot: decode, replay the embedded scenario to
// the snapshot barrier, prove the replayed state matches the snapshot's
// state section, then continue the run to completion and report. shards
// overrides the engine-shard count for the replay (0 = the exporting run's
// count) — the mapping is execution strategy, so a snapshot cut at one count
// imports at any other with identical state and digests.
func ImportFleet(data []byte, shards int) (*FleetResult, error) {
	snap, sc, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if shards > 0 {
		sc.Shards = shards
	}
	f, checker, horizon, err := buildFleet(sc)
	if err != nil {
		return nil, fmt.Errorf("harness: rebuilding snapshot scenario: %w", err)
	}
	if err := f.Begin(horizon); err != nil {
		return nil, err
	}
	defer f.Finish()
	if _, err := f.RunTo(snap.BarrierAt); err != nil {
		return nil, err
	}
	st, err := f.ExportState()
	if err != nil {
		return nil, err
	}
	if part := snapshot.Divergence(st, &snap.State); part != "" {
		return nil, fmt.Errorf(
			"harness: replayed state at %v diverges from snapshot at %s (state digest %016x != %016x) — serialization drift or nondeterminism",
			snap.BarrierAt, part, snapshot.StateDigest(st), snapshot.StateDigest(&snap.State))
	}
	if _, err := f.RunTo(-1); err != nil {
		return nil, err
	}
	return fleetReport(f, checker), nil
}

// ImportVerdict is a fully verified restore: the imported run, the
// uninterrupted reference replayed from the snapshot's embedded scenario,
// and the decoded snapshot itself. VerifyImport only returns one when every
// digest agrees.
type ImportVerdict struct {
	Snapshot  *snapshot.Snapshot
	Imported  *FleetResult
	Reference *FleetResult
}

// VerifyImport is the whole restore proof in one call — what the CI
// snapshot-replay stage and `blessbench -snapshot-import` run: import the
// snapshot (which already proves the replayed barrier state identical),
// continue to completion, replay the embedded scenario uninterrupted, and
// require completion digest, checker digest and stats to agree. shards is
// the import-side engine-shard count (0 = the exporting run's count); the
// reference runs single-shard, which the shard metamorphic suite makes
// equivalent.
func VerifyImport(data []byte, shards int) (*ImportVerdict, error) {
	snap, sc, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	imported, err := ImportFleet(data, shards)
	if err != nil {
		return nil, err
	}
	sc.Shards = 1
	ref, err := RunFleet(sc)
	if err != nil {
		return nil, fmt.Errorf("harness: uninterrupted reference: %w", err)
	}
	if imported.Digest != ref.Digest {
		return nil, fmt.Errorf("harness: restored run's completion digest %016x != uninterrupted %016x",
			imported.Digest, ref.Digest)
	}
	if imported.Invariants != nil && ref.Invariants != nil && imported.Invariants.Digest != ref.Invariants.Digest {
		return nil, fmt.Errorf("harness: restored run's checker digest %016x != uninterrupted %016x",
			imported.Invariants.Digest, ref.Invariants.Digest)
	}
	if imported.Stats != ref.Stats {
		return nil, fmt.Errorf("harness: restored run's stats diverge from uninterrupted reference:\n got %+v\nwant %+v",
			imported.Stats, ref.Stats)
	}
	return &ImportVerdict{Snapshot: snap, Imported: imported, Reference: ref}, nil
}
