package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"bless/internal/sim"
)

// sampleSnapshot exercises every state field at least once: optional
// sections present, nested slices non-empty, negative and boundary values.
// The scenario is opaque to this package, so any JSON value stands in.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		BarrierAt: 25 * sim.Millisecond,
		Scenario:  []byte(`{"Seed":7,"Policy":"least-loaded","Horizon":60000000,"Repro":"blessbench -fleet -smoke -seed 7"}`),
		State: State{
			At:             25 * sim.Millisecond,
			Epoch:          2,
			ShortfallTicks: 1,
			Churned:        true,
			Stats: Stats{Admitted: 2, Routed: 40, Completed: 31, Failed: 1,
				Migrations: 1, Rebalances: 1, DeviceCrashes: 1, Resubmitted: 3, Epochs: 2},
			Devices: []DeviceState{
				{
					ID: 0, Name: "gpu0", SMs: 108, MemoryBytes: 40 << 30,
					Deployed: true, NextLocal: 3, Quota: 0.31, Mem: 5 << 30,
					Inflight: 2, Completed: 17, SLOOK: 9, SLOMiss: 1,
					MemUsed: 4 << 30, Utilization: 0.4375,
					Residents: []ResidentState{
						{Local: 0, Tenant: "t000", Quota: 0.13, Mem: 2 << 30, Pending: 1},
						{Local: 2, Tenant: "t001", Quota: 0.18, Mem: 3 << 30, Draining: true, Pending: 1},
					},
					Queues: []QueueState{
						{Owner: 0, Pending: 1, Running: true},
						{Owner: -1, Paused: true},
					},
					Runtime: &RuntimeState{
						Clients: []ClientState{
							{ID: 0, Provisioned: 0.13, Effective: 0.13, Queued: 1,
								ActiveSeq: 4, ActiveNextK: 7, ActiveInFlight: 2},
							{ID: 2, Provisioned: 0.18, Effective: 0.18, ActiveSeq: -1,
								Leaving: true},
						},
						SquadsExecuted: 9, SpatialSquads: 6, KernelsScheduled: 310,
						ConfigsEvaluated: 120, SquadRunning: true,
						Faults: FaultCounts{KernelFaults: 2, Retries: 2, Joins: 2},
					},
				},
				{ID: 1, Name: "gpu1", SMs: 60, MemoryBytes: 24 << 30, Dead: true},
			},
			Tenants: []TenantState{
				{
					Name: "t000", App: "vgg11", Quota: 0.13, Think: 2 * sim.Millisecond,
					Host: 0, NextSeq: 5, Completed: 4,
					LatencySum:  48 * sim.Millisecond,
					Order:       []int{0, 1, 2, 3},
					Latencies:   []sim.Time{12 * sim.Millisecond, 11 * sim.Millisecond, 13 * sim.Millisecond, 12 * sim.Millisecond},
					PendingSeqs: []int{4},
					PendingDevs: []int{0},
					Timers:      []sim.Time{27 * sim.Millisecond},
				},
				{
					Name: "t001", App: "bert", Quota: 0.18, SLOTarget: 150 * sim.Millisecond,
					Think: 3 * sim.Millisecond, Requests: 12,
					Host: 0, Evicted: false, NextSeq: 3, Completed: 2, Failed: 1,
					Migrations: 1, Drains: []int{0},
					PendingSeqs: []int{2}, PendingDevs: []int{0},
				},
			},
			Inbox: []ExchangeRecord{
				{Deliver: 25*sim.Millisecond + 40*sim.Microsecond, At: 25*sim.Millisecond - 60*sim.Microsecond,
					Dev: 0, Seq: 3, Tenant: "t001", Local: 2, RSeq: 2, Lat: 9 * sim.Millisecond, Drained: true},
			},
			ControlTimes: []sim.Time{30 * sim.Millisecond, 40 * sim.Millisecond},
			EventTimes:   []sim.Time{25*sim.Millisecond + 3*sim.Microsecond, 27 * sim.Millisecond},
			Checker:      &CheckerState{Digest: 0xdeadbeefcafef00d, Events: 81, Routed: 40, Completed: 31, Rerouted: 3},
		},
	}
}

func mustEncode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// frame seals payload under version exactly as Encode would, so tests can
// hand Decode well-sealed frames carrying hostile content.
func frame(version uint32, payload []byte) []byte {
	buf := append([]byte(Magic), binary.LittleEndian.AppendUint32(nil, version)...)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, fnv1a(buf))
}

// payloadOf strips the header and seal from an encoded snapshot.
func payloadOf(data []byte) []byte { return data[headerLen : len(data)-sealLen] }

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data := mustEncode(t, s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Canonical encoding: re-encoding the decoded snapshot must reproduce
	// the exact bytes, which subsumes a field-by-field comparison.
	if !bytes.Equal(mustEncode(t, got), data) {
		t.Fatal("re-encoded snapshot differs from original bytes")
	}
	if got.State.Checker == nil || got.State.Devices[0].Runtime == nil {
		t.Fatal("optional sections lost in round trip")
	}
	if StateDigest(&got.State) != StateDigest(&s.State) {
		t.Fatal("state digest moved across round trip")
	}
	if d := Divergence(&got.State, &s.State); d != "" {
		t.Fatalf("round-tripped state diverges at %s", d)
	}
}

func TestSnapshotRoundTripMinimal(t *testing.T) {
	s := &Snapshot{Scenario: []byte(`{"Seed":1}`)}
	got, err := Decode(mustEncode(t, s))
	if err != nil {
		t.Fatalf("decode minimal: %v", err)
	}
	if !bytes.Equal(mustEncode(t, got), mustEncode(t, s)) {
		t.Fatal("minimal snapshot not canonical")
	}
	if got.State.Checker != nil || got.State.Devices != nil {
		t.Fatal("optional sections materialized from nothing")
	}
}

// TestSnapshotGolden pins the wire format: the header bytes exactly, and the
// digest of the full sample encoding. Any unintentional change to field
// order, names, or float formatting breaks this test — intentional changes
// must bump Version and update the golden values.
func TestSnapshotGolden(t *testing.T) {
	data := mustEncode(t, sampleSnapshot())
	const goldenHeader = "424c4553534e415002000000" // "BLESSNAP" + version 2 LE
	if got := hex.EncodeToString(data[:headerLen]); got != goldenHeader {
		t.Fatalf("header drifted:\n got %s\nwant %s", got, goldenHeader)
	}
	const goldenDigest = uint64(0x4c166d4a0f49fdd0)
	if got := fnv1a(data); got != goldenDigest {
		t.Fatalf("wire format drifted: payload digest %#x, golden %#x — if intentional, bump Version and refresh", got, goldenDigest)
	}
}

// TestDivergenceNamesPart pins the import proof's failure message: the first
// differing top-level field, narrowed to the tenant or device.
func TestDivergenceNamesPart(t *testing.T) {
	want := sampleSnapshot().State
	for _, tc := range []struct {
		mutate func(st *State)
		part   string
	}{
		{func(st *State) { st.Tenants[1].NextSeq++ }, `Tenants["t001"]`},
		{func(st *State) { st.Devices[1].Dead = false }, "Devices[id 1]"},
		{func(st *State) { st.Devices = st.Devices[:1] }, "Devices (1 entries, snapshot has 2)"},
		{func(st *State) { st.Checker.Events++ }, "Checker"},
		{func(st *State) { st.EventTimes = nil }, "EventTimes"},
	} {
		got := sampleSnapshot().State
		tc.mutate(&got)
		if d := Divergence(&got, &want); d != tc.part {
			t.Errorf("divergence %q, want %q", d, tc.part)
		}
	}
}

func TestSnapshotDecodeRejectsBadMagic(t *testing.T) {
	data := mustEncode(t, sampleSnapshot())
	data[0] = 'X'
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsNewerVersion(t *testing.T) {
	// A well-sealed snapshot from a future build.
	data := frame(Version+1, payloadOf(mustEncode(t, sampleSnapshot())))
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("forward-incompatible snapshot not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsOldVersion(t *testing.T) {
	// Version 1 was the retired binary payload: refused by name, not
	// misparsed as JSON.
	data := frame(1, payloadOf(mustEncode(t, sampleSnapshot())))
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "no longer supported") {
		t.Fatalf("version-1 snapshot not rejected: %v", err)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	data := mustEncode(t, sampleSnapshot())
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if _, err := Decode(flip); err == nil {
		t.Fatal("corrupted payload not rejected")
	}
	trunc := data[:len(data)-9]
	if _, err := Decode(trunc); err == nil {
		t.Fatal("truncated payload not rejected")
	}
	if _, err := Decode(data[:4]); err == nil {
		t.Fatal("too-short payload not rejected")
	}
	// Well-sealed but malformed payloads: the seal cannot vouch for content.
	for _, payload := range []string{
		``,
		`{"BarrierAt":1`,
		`{"BarrierAt":1,"Unknown":2}`,
		`{"State":{"Devices":[{"Bogus":true}]}}`,
		`{"BarrierAt":"soon"}`,
	} {
		if _, err := Decode(frame(Version, []byte(payload))); err == nil {
			t.Errorf("malformed payload %q not rejected", payload)
		}
	}
}

func TestSnapshotDecodeRejectsTrailingBytes(t *testing.T) {
	payload := payloadOf(mustEncode(t, sampleSnapshot()))
	for _, tail := range []string{"\xaa", " ", "{}"} {
		// Smuggled after the JSON value but inside the seal.
		data := frame(Version, append(append([]byte(nil), payload...), tail...))
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing %q not rejected: %v", tail, err)
		}
	}
}

// FuzzDecode feeds Decode hostile frames. Decode must never panic, and
// whatever it accepts must re-encode to canonical bytes: encoding the
// decoded snapshot, decoding that, and encoding again is a fixed point.
func FuzzDecode(f *testing.F) {
	full, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	minimal, err := Encode(&Snapshot{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(minimal)
	f.Add(full[:len(full)/2])
	f.Add(frame(Version+1, payloadOf(full)))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFixedPoint(t, data)
		// Mutations almost never keep the seal valid; resealing the same
		// bytes lets the fuzzer reach the version check and JSON parser.
		if len(data) >= headerLen+sealLen {
			body := data[:len(data)-sealLen]
			decodeFixedPoint(t, binary.LittleEndian.AppendUint64(append([]byte(nil), body...), fnv1a(body)))
		}
	})
}

func decodeFixedPoint(t *testing.T, data []byte) {
	s, err := Decode(data)
	if err != nil {
		return
	}
	once, err := Encode(s)
	if err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	again, err := Decode(once)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	twice, err := Encode(again)
	if err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("re-encoding is not a fixed point:\n%q\n%q", once, twice)
	}
}
