package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 50 {
		t.Errorf("clock = %v, want 50", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestEnginePastEventsFireAtNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.Schedule(50, func() {
			if e.Now() != 100 {
				t.Errorf("past-scheduled event fired at %v, want clamped to 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v by canceled event", e.Now())
	}
}

func TestEngineCancelFromCallback(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.Schedule(5, func() { victim.Cancel() })
	victim = e.Schedule(10, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event canceled from an earlier callback still fired")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.After(1, recurse)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("clock = %v after RunUntil(25), want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop at 3, want 3", count)
	}
	e.Run()
	if count != 10 {
		t.Errorf("resumed run fired %d total, want 10", count)
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine reported an event")
	}
}

// Property: for any set of event timestamps, Run fires them in nondecreasing
// order and the clock ends at the maximum.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []int16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r)
			if at < 0 {
				at = -at
			}
			if at > max {
				max = at
			}
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{3 * Microsecond, "3us"},
		{10200 * Microsecond, "10.2ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if ms := (1500 * Microsecond).Milliseconds(); ms != 1.5 {
		t.Errorf("Milliseconds = %g, want 1.5", ms)
	}
	if us := (2 * Millisecond).Microseconds(); us != 2000 {
		t.Errorf("Microseconds = %g, want 2000", us)
	}
}

func TestEventAt(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(42*Microsecond, func() {})
	if ev.At() != 42*Microsecond {
		t.Errorf("At() = %v, want 42us", ev.At())
	}
	var nilEv *Event
	nilEv.Cancel() // must not panic
}

func TestEnginePendingTimes(t *testing.T) {
	e := NewEngine()
	if got := e.PendingTimes(nil); len(got) != 0 {
		t.Fatalf("empty engine reported pending times %v", got)
	}
	e.Schedule(30, func() {})
	ev := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	e.Schedule(20, func() {})
	ev.Cancel()
	got := e.PendingTimes(nil)
	want := []Time{20, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Appends after a prefix without touching it, and the heap still runs.
	buf := e.PendingTimes([]Time{5})
	if buf[0] != 5 || len(buf) != 4 {
		t.Fatalf("prefix not preserved: %v", buf)
	}
	e.Run()
	if n := len(e.PendingTimes(nil)); n != 0 {
		t.Fatalf("%d pending times after drain", n)
	}
}

// rearmEngine drives one engine through the equivalence test's op stream.
// inPlace selects how a live event is re-armed: Engine.Reschedule, or Cancel
// followed by Schedule of the same callback.
type rearmEngine struct {
	eng     *Engine
	inPlace bool
	live    map[int]*Event // logical event ID -> current handle
	fired   []firing
}

type firing struct {
	id int
	at Time
}

func (r *rearmEngine) schedule(id int, at Time, chain *rand.Rand) {
	var fn func()
	fn = func() {
		delete(r.live, id)
		r.fired = append(r.fired, firing{id, r.eng.Now()})
		// Re-entrant re-arms from inside a callback, as GPU completion
		// handlers do; chain is advanced identically on both engines while
		// their fired sequences agree.
		if chain.Intn(3) == 0 {
			if ids := r.liveIDs(); len(ids) > 0 {
				r.rearm(ids[chain.Intn(len(ids))], r.eng.Now()+Time(chain.Intn(4)))
			}
		}
	}
	r.live[id] = r.eng.Schedule(at, fn)
}

func (r *rearmEngine) rearm(id int, at Time) {
	ev := r.live[id]
	if r.inPlace {
		r.eng.Reschedule(ev, at)
		return
	}
	fn := ev.fn
	ev.Cancel()
	r.live[id] = r.eng.Schedule(at, fn)
}

func (r *rearmEngine) liveIDs() []int {
	ids := make([]int, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestEngineRescheduleMatchesCancelSchedule runs random schedule, cancel and
// re-arm op streams (re-arms also from inside callbacks, many of them onto
// already-occupied instants) on two engines — one re-arming with Reschedule,
// the other with Cancel + Schedule — and requires the same callbacks to fire
// at the same times in the same order, with PendingTimes agreeing after
// every op.
func TestEngineRescheduleMatchesCancelSchedule(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= seeds; seed++ {
		ops := rand.New(rand.NewSource(seed))
		a := &rearmEngine{eng: NewEngine(), live: map[int]*Event{}}
		b := &rearmEngine{eng: NewEngine(), inPlace: true, live: map[int]*Event{}}
		chainA := rand.New(rand.NewSource(-seed))
		chainB := rand.New(rand.NewSource(-seed))
		next := 0
		for step := 0; step < 400; step++ {
			ids := a.liveIDs()
			if !slices.Equal(ids, b.liveIDs()) {
				t.Fatalf("seed %d step %d: live events %v vs %v", seed, step, ids, b.liveIDs())
			}
			// Times land on a coarse grid, in the past too, so re-arms
			// collide with pending events and with the clamp to now.
			at := a.eng.Now() + Time(ops.Intn(12)-2)
			switch op := ops.Intn(10); {
			case op < 4 || len(ids) == 0:
				a.schedule(next, at, chainA)
				b.schedule(next, at, chainB)
				next++
			case op < 5:
				id := ids[ops.Intn(len(ids))]
				a.live[id].Cancel()
				b.live[id].Cancel()
				delete(a.live, id)
				delete(b.live, id)
			case op < 8:
				id := ids[ops.Intn(len(ids))]
				a.rearm(id, at)
				b.rearm(id, at)
			default:
				if a.eng.Step() != b.eng.Step() {
					t.Fatalf("seed %d step %d: Step disagrees", seed, step)
				}
			}
			if !slices.Equal(a.fired, b.fired) {
				t.Fatalf("seed %d step %d: fired %v, in-place %v", seed, step, a.fired, b.fired)
			}
			if pa, pb := a.eng.PendingTimes(nil), b.eng.PendingTimes(nil); !slices.Equal(pa, pb) {
				t.Fatalf("seed %d step %d: PendingTimes %v, in-place %v", seed, step, pa, pb)
			}
			if a.eng.Now() != b.eng.Now() {
				t.Fatalf("seed %d step %d: clocks %v vs %v", seed, step, a.eng.Now(), b.eng.Now())
			}
		}
		a.eng.Run()
		b.eng.Run()
		if !slices.Equal(a.fired, b.fired) || len(b.live) != 0 {
			t.Fatalf("seed %d: drained fired %v, in-place %v (%d live left)", seed, a.fired, b.fired, len(b.live))
		}
		if b.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d heap entries left after drain", seed, b.eng.Pending())
		}
	}
}

func TestEngineRescheduleInPlace(t *testing.T) {
	e := NewEngine()
	var order []string
	ev := e.Schedule(10, func() { order = append(order, "moved") })
	e.Schedule(20, func() { order = append(order, "other") })
	e.Reschedule(ev, 20) // fresh seq: fires after the event already at 20
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after an in-place re-arm, want 2 (no dead entry)", e.Pending())
	}
	ev.Cancel()
	e.Reschedule(ev, 30) // a canceled, undiscarded event is revived
	e.Run()
	if want := []string{"other", "moved"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a fired event did not panic")
		}
	}()
	e.Reschedule(ev, 40)
}
