// Package sim implements a deterministic discrete-event simulator of a
// multi-context GPU, the execution substrate for the BLESS reproduction.
//
// The simulated device follows the general GPU-sharing workflow of the paper
// (§3.1): host-side schedulers create contexts with SM-affinity restrictions,
// enqueue kernels into per-context device queues, and the hardware scheduler
// dispatches blocks of the queue-head kernels onto streaming multiprocessors
// (SMs). Kernels within one queue are serialized; kernels across queues run
// concurrently, capped by their context's SM limit and slowed by memory
// bandwidth contention. Memory-management kernels (H2D/D2H copies) run on a
// DMA engine and contend for PCIe bandwidth.
//
// All time is virtual: an int64 nanosecond clock driven by an event heap.
// Simulations are fully deterministic, which the test-suite and the benchmark
// harness rely on.
package sim

import (
	"fmt"
	"sort"
)

// Time is a virtual-time instant, in nanoseconds since simulation start.
type Time int64

// Duration constants for readable virtual-time arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats the instant with microsecond precision, e.g. "12.345ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}

// Milliseconds returns the instant as a float64 count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the instant as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.Schedule, may be moved with Engine.Reschedule and
// may be revoked with Cancel.
//
// Event objects are pooled: once an event has fired (its callback returned)
// or has been canceled and subsequently discarded by the engine, its handle
// is dead and the object may back a future Schedule call. Holding a handle
// past that point and calling Cancel or Reschedule on it would act on an
// unrelated later event — release (nil out) stored handles no later than
// inside the firing callback, as GPU.completion and the temporal baseline's
// slice timer do. Reschedule keeps a handle alive: the same event moves to
// its new instant, so a handle re-armed any number of times stays valid until
// the event fires or is canceled.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Cancel revokes the event. Canceling an already-fired or already-canceled
// event is a no-op. Cancel is safe to call from within event callbacks.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// eventHeap is a binary min-heap of events ordered by (at, seq). The order
// is total (seq is unique), so the pop sequence depends only on the set of
// live events, never on the heap's internal layout. The operations are typed
// versions of container/heap's, without its interface dispatch.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts element i0 toward the leaves of h[:n] and reports whether it
// moved.
func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	old.down(0, n)
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

// fix restores heap order after the element at index i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// Engine is a discrete-event simulation loop: a virtual clock plus a heap of
// timed callbacks. Callbacks run strictly in time order (FIFO among equal
// times) and may schedule further events. Engine is not safe for concurrent
// use; the whole simulation is single-threaded by design.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
	free    []*Event // recycled events backing future Schedule calls
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at virtual time at. If at is in the past, the
// event fires at the current time (never before already-pending earlier
// events). The returned Event may be canceled.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		at = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.canceled = at, e.seq, fn, false
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn}
	}
	e.seq++
	e.events.push(ev)
	return ev
}

// Reschedule moves a pending event to fire at at instead, keeping its
// callback; at in the past is clamped to now, as in Schedule. It is exactly
// Cancel followed by Schedule of the same callback — the event takes a fresh
// sequence number, so it fires after every event already scheduled for the
// same instant — except that the event moves in place: no dead entry is left
// in the heap and the handle stays valid. Rescheduling a canceled event that
// the engine has not yet discarded revives it. A fired or discarded event's
// handle is dead (see Event): Reschedule panics on it unless the pooled
// object already backs a later event.
func (e *Engine) Reschedule(ev *Event, at Time) {
	if ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		panic("sim: Reschedule of an event that is not pending")
	}
	if at < e.now {
		at = e.now
	}
	ev.at, ev.seq, ev.canceled = at, e.seq, false
	e.seq++
	e.events.fix(ev.index)
}

// recycle returns a dead (fired or canceled-and-popped) event to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil // release the closure
	e.free = append(e.free, ev)
}

// After registers fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// Pending reports the number of heap entries: live events plus canceled
// ones the engine has not yet discarded. Events moved with Reschedule count
// once — an in-place re-arm leaves no canceled entry behind.
func (e *Engine) Pending() int { return len(e.events) }

// Stop makes the currently running Run/RunUntil call return after the
// in-flight callback completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the earliest pending non-canceled event and advances the clock
// to its timestamp. It reports whether an event fired.
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.events.pop()
	e.now = ev.at
	ev.fn()
	e.recycle(ev)
	return true
}

// peek discards canceled events at the head of the heap and returns the
// earliest live event, nil when none is queued.
func (e *Engine) peek() *Event {
	for len(e.events) > 0 && e.events[0].canceled {
		e.recycle(e.events.pop())
	}
	if len(e.events) == 0 {
		return nil
	}
	return e.events[0]
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// the deadline (if it has not already passed it) and returns. Events beyond
// the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if ev := e.peek(); ev == nil || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore fires events with timestamps strictly earlier than deadline,
// then sets the clock to exactly deadline and returns. Events at or past the
// deadline stay queued and fire in a later window. This is the window
// primitive of the sharded fleet simulation: every shard runs [now, deadline)
// locally, and all clocks agree at the barrier.
func (e *Engine) RunBefore(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if ev := e.peek(); ev == nil || ev.at >= deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// PendingTimes appends the timestamps of every live (non-canceled) pending
// event to buf, in ascending order, and returns the extended slice. It is the
// engine's canonical queue view for snapshotting: callbacks are closures and
// cannot be serialized, but their firing instants can — two runs whose
// engines agree on PendingTimes at a barrier hold the same schedule. The
// heap is not disturbed; canceled events are skipped, not collected.
func (e *Engine) PendingTimes(buf []Time) []Time {
	start := len(buf)
	for _, ev := range e.events {
		if ev != nil && !ev.canceled {
			buf = append(buf, ev.at)
		}
	}
	tail := buf[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return buf
}

// PeekTime reports the timestamp of the earliest live (non-canceled) pending
// event. ok is false when no live event is queued.
func (e *Engine) PeekTime() (at Time, ok bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
