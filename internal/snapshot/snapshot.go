// Package snapshot defines the versioned, sealed wire format for fleet
// runtime snapshots — the export/import primitive behind migration, upgrade
// and crash-recovery testing (the wasmd test-sim-import-export discipline).
//
// A snapshot is cut at a virtual-time barrier of a fleet run and captures
// two things:
//
//   - the generating Scenario: everything needed to rebuild the fleet from
//     nothing in a fresh process (pool, tenants, control schedule, policy,
//     runtime options, seed, shard count, horizon) — snapshots are
//     self-contained. It is opaque JSON here: the harness encodes it from
//     its own FleetScenario type and owns that shape; and
//   - the State: the complete observable logical state at the barrier —
//     per-device control-plane and BLESS-runtime state (clients, quotas,
//     backlogs, fault/retry counters), per-tenant progress (sequence
//     counters, completion order, outstanding requests, closed-loop timers),
//     in-flight cross-shard exchange records, the invariant checker's
//     digest, and the merged multiset of pending engine-event times.
//
// Pending engine events are closures and cannot be serialized; importing a
// snapshot therefore reconstructs them by deterministic replay of the
// Scenario to the same barrier, then proves the reconstruction by comparing
// the replayed state's canonical encoding against the State section (see
// Divergence). Any serialization drift or cross-process nondeterminism fails
// the import before the run continues.
//
// The frame is
//
//	"BLESSNAP" | version u32 LE | JSON payload | fnv1a-64(all preceding) u64 LE
//
// The payload is encoding/json of Snapshot, which is canonical for these
// types: fields go out in declaration order, there are no maps, and floats
// print in their shortest exact round-trip form — so the same logical state
// always encodes to the same bytes, which is what makes the replay proof and
// the golden test possible. The seal authenticates the payload against
// truncation and corruption; the version gates incompatibility (a snapshot
// from a newer build, or from the retired version-1 binary format, is
// rejected, never misparsed).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"

	"bless/internal/sim"
)

// Magic identifies a BLESS snapshot stream.
const Magic = "BLESSNAP"

// Version is the current wire-format version: 2, a JSON payload. Decode
// rejects newer versions and the retired version-1 binary payload.
const Version = 2

// Snapshot is one exported fleet runtime state: the barrier, the generating
// scenario, and the canonical state at the barrier.
type Snapshot struct {
	// BarrierAt is the virtual-time barrier the snapshot was cut at.
	BarrierAt sim.Time
	// Scenario regenerates the run from t=0 in a fresh process. The harness
	// encodes and decodes it (seed, shard count and horizon included).
	Scenario json.RawMessage
	// State is the canonical logical state at BarrierAt.
	State State
}

// State is the complete observable logical fleet state at a barrier. Every
// field is keyed on canonical entities (devices by id, tenants by admission
// order, requests by sequence) — never on shards, goroutines or map order —
// so the encoding is identical at any engine-shard count or mapping.
type State struct {
	// At is the barrier instant (all engine clocks agree on it).
	At sim.Time
	// Epoch and ShortfallTicks/Churned are the control loop's state.
	Epoch          int64
	ShortfallTicks int
	Churned        bool
	// Stats are the merged control-plane counters (shard tallies folded).
	Stats Stats
	// Devices, id order.
	Devices []DeviceState
	// Tenants, admission order.
	Tenants []TenantState
	// Inbox holds in-flight cross-shard exchange records in canonical
	// (deliver, device, ordinal) order — a snapshot mid-migration carries
	// the drain completions still traveling to their tenants' owners.
	Inbox []ExchangeRecord
	// ControlTimes are the pending control-engine event instants (future
	// rebalance ticks, scheduled migrations and crashes), ascending.
	ControlTimes []sim.Time
	// EventTimes is the merged multiset of live pending engine-event
	// instants across all shards, ascending — the serializable shape of the
	// event queues (mapping-invariant: the same logical events pend
	// regardless of which shard holds them).
	EventTimes []sim.Time
	// Checker is the fleet invariant checker's running state (nil when the
	// run is unchecked).
	Checker *CheckerState
}

// Stats mirrors fleet.Stats, merged across shards.
type Stats struct {
	Admitted            int
	AdmitRejected       int
	Routed              int64
	Completed           int64
	Failed              int64
	Migrations          int
	MigrationsCompleted int
	MigrationsRejected  int
	Rebalances          int
	ScaleUps            int
	ScaleDowns          int
	DeviceCrashes       int
	Resubmitted         int64
	Evicted             int
	LostToEviction      int
	Epochs              int64
}

// DeviceState is one device's control-plane and runtime state.
type DeviceState struct {
	ID          int
	Name        string
	SMs         int
	MemoryBytes int64
	Deployed    bool
	Retired     bool
	Dead        bool
	NextLocal   int
	Quota       float64
	Mem         int64
	Inflight    int
	Completed   int64
	Failed      int64
	SLOOK       int64
	SLOMiss     int64
	// MemUsed and Utilization are the simulated device's view.
	MemUsed     int64
	Utilization float64
	// Residents, local-id order (live and draining).
	Residents []ResidentState
	// Queues is the device's per-queue simulator state, creation order.
	Queues []QueueState
	// Runtime is the BLESS runtime's state (nil until first resident).
	Runtime *RuntimeState
}

// ResidentState is one tenancy on one device.
type ResidentState struct {
	Local    int
	Tenant   string
	Quota    float64
	Mem      int64
	Draining bool
	Pending  int
}

// QueueState is one device queue's observable simulator state.
type QueueState struct {
	Owner   int
	Pending int
	Paused  bool
	Running bool
}

// RuntimeState is the BLESS runtime's serializable state: clients, quotas,
// backlogs, and the fault/retry counters.
type RuntimeState struct {
	Clients          []ClientState
	SquadsExecuted   int64
	SpatialSquads    int64
	KernelsScheduled int64
	ConfigsEvaluated int64
	SquadRunning     bool
	Faults           FaultCounts
}

// ClientState is one runtime client's state.
type ClientState struct {
	ID          int
	Provisioned float64
	Effective   float64
	Queued      int
	// ActiveSeq is the in-service request's sequence (-1 when idle);
	// ActiveNextK/ActiveInFlight describe its kernel progress.
	ActiveSeq      int
	ActiveNextK    int
	ActiveInFlight int
	Leaving        bool
	Dead           bool
	Released       bool
}

// FaultCounts mirrors core.FaultStats.
type FaultCounts struct {
	KernelFaults     int64
	Retries          int64
	RetryAborts      int64
	DeadlineAborts   int64
	CtxFaults        int64
	StallDelays      int64
	Crashes          int64
	Leaves           int64
	Joins            int64
	CancelledKernels int64
}

// ExchangeRecord is one in-flight cross-shard drain completion.
type ExchangeRecord struct {
	Deliver sim.Time
	At      sim.Time
	Dev     int
	Seq     uint64
	Tenant  string
	Local   int
	RSeq    int
	Failed  bool
	Lat     sim.Time
	Drained bool
}

// TenantState is one tenant's fleet-side state.
type TenantState struct {
	Name       string
	App        string
	Quota      float64
	SLOTarget  sim.Time
	Think      sim.Time
	Requests   int
	Host       int // current host device (-1 if evicted/none)
	Evicted    bool
	NextSeq    int
	Completed  int
	Failed     int
	Migrations int
	LatencySum sim.Time
	// Order is the completion order of sequence numbers — the digest
	// substrate.
	Order []int
	// Latencies are the successful completions' latencies, completion order.
	Latencies []sim.Time
	// PendingSeqs/PendingDevs are the outstanding requests (ascending seq)
	// and the device each is running on.
	PendingSeqs []int
	PendingDevs []int
	// Drains are the devices still finishing pre-migration backlog.
	Drains []int
	// Timers are the pending closed-loop submission instants.
	Timers []sim.Time
}

// CheckerState is the fleet invariant checker's running state at the
// barrier: the event digest and its feed counters.
type CheckerState struct {
	Digest    uint64
	Events    int64
	Routed    int64
	Completed int64
	Rerouted  int64
}

// fnvOffset/fnvPrime are the FNV-1a constants used across the repo.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

func fnv1a(data []byte) uint64 {
	h := fnvOffset
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// headerLen is the magic plus the version word; sealLen is the trailing
// FNV-1a digest.
const (
	headerLen = len(Magic) + 4
	sealLen   = 8
)

// Encode serializes the snapshot to its canonical, sealed byte form. It
// fails only on a value JSON cannot carry (a NaN or infinite float, or a
// Scenario that is not valid JSON).
func Encode(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	buf := make([]byte, 0, headerLen+len(payload)+sealLen)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, fnv1a(buf)), nil
}

// StateDigest is the FNV-1a digest of the state's canonical encoding (0 for
// a state that does not encode, which only a NaN or infinite float causes).
func StateDigest(st *State) uint64 {
	data, err := json.Marshal(st)
	if err != nil {
		return 0
	}
	return fnv1a(data)
}

// Decode parses and authenticates a snapshot stream. It rejects a bad magic,
// a seal mismatch (truncation/corruption), any version but this one, unknown
// fields, and anything after the JSON value.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+sealLen {
		return nil, fmt.Errorf("snapshot: %d bytes is too short to be a snapshot", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (want %q)", data[:len(Magic)], Magic)
	}
	body := data[:len(data)-sealLen]
	if got, want := binary.LittleEndian.Uint64(data[len(body):]), fnv1a(body); got != want {
		return nil, fmt.Errorf("snapshot: payload digest mismatch (%016x != %016x) — truncated or corrupted", got, want)
	}
	switch v := binary.LittleEndian.Uint32(data[len(Magic):]); {
	case v > Version:
		return nil, fmt.Errorf("snapshot: format version %d is newer than this build supports (%d) — refusing to misparse", v, Version)
	case v < Version:
		return nil, fmt.Errorf("snapshot: format version %d is no longer supported (this build reads only version %d) — re-export the snapshot", v, Version)
	}
	payload := body[headerLen:]
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	s := &Snapshot{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("snapshot: payload: %w", err)
	}
	if n := dec.InputOffset(); n != int64(len(payload)) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after the JSON payload", int64(len(payload))-n)
	}
	return s, nil
}

// Divergence names the first part of got whose canonical encoding differs
// from want's: a top-level State field, narrowed to the device id or tenant
// name inside Devices and Tenants. It returns "" when the two states encode
// identically — the import proof's byte comparison, made to point at where
// a replay went wrong.
func Divergence(got, want *State) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		if sameJSON(g.Field(i).Interface(), w.Field(i).Interface()) {
			continue
		}
		switch field := g.Type().Field(i).Name; field {
		case "Devices":
			return field + firstDiff(got.Devices, want.Devices, func(d DeviceState) string {
				return fmt.Sprintf("id %d", d.ID)
			})
		case "Tenants":
			return field + firstDiff(got.Tenants, want.Tenants, func(t TenantState) string {
				return fmt.Sprintf("%q", t.Name)
			})
		default:
			return field
		}
	}
	return ""
}

// firstDiff locates the first differing element, named by want's entry, or
// reports the length mismatch when one list is a prefix of the other.
func firstDiff[E any](got, want []E, name func(E) string) string {
	for i := range min(len(got), len(want)) {
		if !sameJSON(got[i], want[i]) {
			return "[" + name(want[i]) + "]"
		}
	}
	return fmt.Sprintf(" (%d entries, snapshot has %d)", len(got), len(want))
}

func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
