package core

import (
	"testing"

	"bless/internal/sim"
)

func TestNewServeLaneValidation(t *testing.T) {
	if _, err := NewServeLane(0, 10, 10); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewServeLane(10, 0, 10); err == nil {
		t.Error("zero service accepted")
	}
	if _, err := NewServeLane(10, 10, -1); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := NewServeLane(10, 10, 0); err != nil {
		t.Errorf("zero bound rejected: %v", err)
	}
}

// TestServeLaneAdmitShed walks the G/D/1 recurrence by hand: interval 10,
// service 25, bound 30. Backlog grows 15 per request until the wait crosses
// the bound, then sheds until the lane drains back under it.
func TestServeLaneAdmitShed(t *testing.T) {
	l, err := NewServeLane(10, 25, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		admitted         bool
		start, wait, rag sim.Time // rag = retry-after (shed only)
	}{
		{true, 0, 0, 0},     // seq 0: arrive 0, idle lane
		{true, 25, 15, 0},   // seq 1: arrive 10, busy till 25
		{true, 50, 30, 0},   // seq 2: arrive 20, wait exactly at bound
		{false, 75, 45, 15}, // seq 3: arrive 30, wait 45 > 30 — shed
		{false, 75, 35, 5},  // seq 4: arrive 40, backlog unchanged by shed
		{true, 75, 25, 0},   // seq 5: arrive 50, drained under bound again
	}
	var d ServeDecision
	for seq, w := range want {
		l.Decide(seq, &d)
		if d.Admitted != w.admitted || d.Start != w.start || d.Wait != w.wait || d.RetryAfter != w.rag {
			t.Fatalf("seq %d: got admitted=%v start=%d wait=%d retry=%d, want %+v",
				seq, d.Admitted, d.Start, d.Wait, d.RetryAfter, w)
		}
		if d.Admitted && d.Service != 25 {
			t.Fatalf("seq %d: service %d, want 25", seq, d.Service)
		}
	}
	if l.Admitted != 4 || l.Shed != 2 {
		t.Errorf("admitted/shed %d/%d, want 4/2", l.Admitted, l.Shed)
	}
	if l.Offered() != 6 || l.Next() != 6 {
		t.Errorf("offered/next %d/%d, want 6/6", l.Offered(), l.Next())
	}
}

func TestServeLaneSeqOrderEnforced(t *testing.T) {
	l, _ := NewServeLane(10, 5, 10)
	var d ServeDecision
	l.Decide(0, &d)
	for _, bad := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-order seq %d not caught", bad)
				}
			}()
			l.Decide(bad, &d)
		}()
	}
}

// TestServeLaneDigest: the digest covers seq, admission outcome and start —
// identical streams agree, any divergent decision disagrees.
func TestServeLaneDigest(t *testing.T) {
	mk := func(bound sim.Time, n int) uint64 {
		l, _ := NewServeLane(10, 25, bound)
		var d ServeDecision
		for seq := 0; seq < n; seq++ {
			l.Decide(seq, &d)
		}
		return l.Digest()
	}
	if mk(30, 16) != mk(30, 16) {
		t.Error("identical streams disagree")
	}
	if mk(30, 16) == mk(40, 16) {
		t.Error("different shed outcomes collide")
	}
	if mk(30, 16) == mk(30, 15) {
		t.Error("different lengths collide")
	}
}

func TestServeLaneHeadroom(t *testing.T) {
	l, _ := NewServeLane(10, 25, 30)
	if l.Headroom() != 30 {
		t.Errorf("idle headroom %d, want the full bound", l.Headroom())
	}
	var d ServeDecision
	l.Decide(0, &d)
	l.Decide(1, &d)
	// next=2 arrives at 20, busy=50 -> wait 30, headroom 0.
	if l.Headroom() != 0 {
		t.Errorf("backlogged headroom %d, want 0", l.Headroom())
	}
}

// TestServeDigestFold: the cross-tenant fold is order-independent (XOR) and
// sensitive to any lane's content.
func TestServeDigestFold(t *testing.T) {
	mk := func(bound sim.Time, n int) *ServeLane {
		l, _ := NewServeLane(10, 25, bound)
		var d ServeDecision
		for seq := 0; seq < n; seq++ {
			l.Decide(seq, &d)
		}
		return l
	}
	a, b, c := mk(30, 7), mk(40, 11), mk(0, 5)
	abc := ServeDigest([]*ServeLane{a, b, c})
	if abc != ServeDigest([]*ServeLane{c, a, b}) {
		t.Error("fold depends on lane order")
	}
	if abc == ServeDigest([]*ServeLane{a, b}) {
		t.Error("fold ignores a lane")
	}
	if abc == ServeDigest([]*ServeLane{a, b, mk(0, 6)}) {
		t.Error("fold ignores a lane's content")
	}
}

// TestServeDigestSeeded: name-seeded identical lanes must not cancel to zero
// in the XOR fold, and the seed is deterministic per tag.
func TestServeDigestSeeded(t *testing.T) {
	mk := func(tag string) *ServeLane {
		l, _ := NewServeLane(10, 25, 30)
		l.SeedDigest(tag)
		var d ServeDecision
		for seq := 0; seq < 9; seq++ {
			l.Decide(seq, &d)
		}
		return l
	}
	if mk("a").Digest() != mk("a").Digest() {
		t.Error("seed not deterministic")
	}
	if mk("a").Digest() == mk("b").Digest() {
		t.Error("seed ignores the tag")
	}
	if ServeDigest([]*ServeLane{mk("a"), mk("b")}) == 0 {
		t.Error("identical seeded lanes cancel in the fold")
	}
	unseeded := func() *ServeLane {
		l, _ := NewServeLane(10, 25, 30)
		var d ServeDecision
		for seq := 0; seq < 9; seq++ {
			l.Decide(seq, &d)
		}
		return l
	}
	if ServeDigest([]*ServeLane{unseeded(), unseeded()}) != 0 {
		t.Error("sanity: identical unseeded lanes should cancel (the hazard SeedDigest removes)")
	}
}
