package planner

import (
	"net/http/httptest"
	"strings"
	"testing"

	"bless/internal/harness"
	"bless/internal/snapshot"
)

// TestSnapshotRestoreRoundTrip is the RPC-level restore proof: cut a
// snapshot mid-migration, restore it at a different shard count, and require
// the completed run to land on the same digest FleetPlan reports for the
// uninterrupted scenario.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New()
	req := fleetPlanRequest()

	var ref FleetPlanReply
	if err := p.FleetPlan(req, &ref); err != nil {
		t.Fatalf("reference FleetPlan: %v", err)
	}

	var snapReply SnapshotReply
	// Cut just past the migration trigger (20 ms): the drain is in flight.
	if err := p.Snapshot(SnapshotRequest{Plan: req, AtMS: 20.05}, &snapReply); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snapReply.Snapshot) == 0 || snapReply.StateDigest == "" {
		t.Fatalf("empty snapshot reply: %+v bytes=%d", snapReply, len(snapReply.Snapshot))
	}
	if snapReply.Devices == 0 || snapReply.Tenants != len(req.Tenants) {
		t.Fatalf("snapshot summary wrong: %d devices, %d tenants", snapReply.Devices, snapReply.Tenants)
	}
	snap, err := snapshot.Decode(snapReply.Snapshot)
	if err != nil {
		t.Fatalf("decode RPC snapshot: %v", err)
	}
	sc, err := harness.SnapshotScenario(snap)
	if err != nil {
		t.Fatalf("decode RPC snapshot scenario: %v", err)
	}
	if sc.Repro != "Planner.Snapshot" {
		t.Fatalf("snapshot repro = %q", sc.Repro)
	}

	var restored RestoreReply
	if err := p.Restore(RestoreRequest{Snapshot: snapReply.Snapshot, Shards: 2}, &restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Digest != ref.Digest {
		t.Fatalf("restored digest %s != uninterrupted %s", restored.Digest, ref.Digest)
	}
	if restored.Stats != ref.Stats {
		t.Fatalf("restored stats diverge:\n got %+v\nwant %+v", restored.Stats, ref.Stats)
	}
	if restored.BarrierAtMS != snapReply.BarrierAtMS || restored.StateDigest != snapReply.StateDigest {
		t.Fatalf("restore provenance %v/%s != snapshot %v/%s",
			restored.BarrierAtMS, restored.StateDigest, snapReply.BarrierAtMS, snapReply.StateDigest)
	}
	if len(restored.Violations) != 0 {
		t.Fatalf("violations after restore: %v", restored.Violations)
	}
}

func TestSnapshotDefaultBarrier(t *testing.T) {
	p := New()
	req := fleetPlanRequest()
	var reply SnapshotReply
	if err := p.Snapshot(SnapshotRequest{Plan: req}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.BarrierAtMS != req.HorizonMS/2 {
		t.Fatalf("default barrier %v ms, want half the horizon (%v ms)", reply.BarrierAtMS, req.HorizonMS/2)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	p := New()
	var reply RestoreReply
	if err := p.Restore(RestoreRequest{}, &reply); err == nil {
		t.Fatal("empty restore request accepted")
	}
	if err := p.Restore(RestoreRequest{Snapshot: []byte("not a snapshot")}, &reply); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestServeSnapshot pins the debug endpoint: 404 before any snapshot, then
// the exact raw bytes with the state digest advertised in the header.
func TestServeSnapshot(t *testing.T) {
	p := New()
	rec := httptest.NewRecorder()
	p.ServeSnapshot(rec, nil)
	if rec.Code != 404 {
		t.Fatalf("status %d before any snapshot, want 404", rec.Code)
	}

	var snapReply SnapshotReply
	if err := p.Snapshot(SnapshotRequest{Plan: fleetPlanRequest(), AtMS: 10}, &snapReply); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	p.ServeSnapshot(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if got := rec.Body.Bytes(); string(got) != string(snapReply.Snapshot) {
		t.Fatalf("served %d bytes differ from the RPC's %d", len(got), len(snapReply.Snapshot))
	}
	if !strings.HasPrefix(rec.Body.String(), snapshot.Magic) {
		t.Fatal("served body does not start with the snapshot magic")
	}
	if got := rec.Header().Get("X-Bless-State-Digest"); got != snapReply.StateDigest {
		t.Fatalf("digest header %q != reply digest %q", got, snapReply.StateDigest)
	}
}
