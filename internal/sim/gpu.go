package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Config holds the simulated device parameters. DefaultConfig models the
// paper's testbed, an Nvidia A100 (108 SMs, 40 GB), with the host-side cost
// constants the paper measures in §6.9.
type Config struct {
	// SMs is the number of streaming multiprocessors (108 on A100).
	SMs int
	// MemoryBytes is the device memory capacity (40 GB on A100).
	MemoryBytes int64
	// PCIeBytesPerNS is the host<->device transfer bandwidth in bytes per
	// nanosecond (25 GB/s PCIe4 x16 effective ~= 25 bytes/ns).
	PCIeBytesPerNS float64
	// KernelLaunch is the host-side cost of launching one kernel (~3us).
	KernelLaunch Time
	// ContextSwitch is the vacuum period when a client redirects kernel
	// launches from one GPU context to another through MPS (~50us). The
	// vacuum delays that client's kernels only; other device queues keep
	// executing (§6.9).
	ContextSwitch Time
	// SquadSync is the host<->device synchronization cost at a kernel-squad
	// boundary (~20us).
	SquadSync Time
	// ContextMemBytes is the device memory consumed per additional MPS
	// context (~230 MB, §6.9).
	ContextMemBytes int64
	// SlowdownCap bounds the per-kernel contention slowdown ratio. The paper
	// measures a kernel-level slowdown no larger than 2x even against highly
	// memory-intensive co-runners (Fig 9a).
	SlowdownCap float64
	// BWSatOccupancy is the fraction of a kernel's saturation SM count at
	// which it already reaches its full memory-bandwidth demand: memory-
	// bound kernels saturate the bus well below full occupancy. 0 or 1
	// disables the knee (linear scaling).
	BWSatOccupancy float64
	// InterferenceBeta scales the co-residency penalty: kernels whose SM
	// scopes overlap (at least one side launched without an SM-affinity
	// restriction) slow down by 1 + beta x oversubscription when their
	// combined SM demand exceeds capacity — the uncontrolled interleaving
	// the paper attributes to unbounded sharing (Fig 3b, §3.2). Strictly
	// partitioned contexts never pay it, which is what makes controlled
	// spatial sharing attractive.
	InterferenceBeta float64
}

// DefaultConfig returns the A100-calibrated configuration used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		SMs:              108,
		MemoryBytes:      40 << 30,
		PCIeBytesPerNS:   25.0,
		KernelLaunch:     3 * Microsecond,
		ContextSwitch:    50 * Microsecond,
		SquadSync:        20 * Microsecond,
		ContextMemBytes:  230 << 20,
		SlowdownCap:      2.0,
		BWSatOccupancy:   0.5,
		InterferenceBeta: 0.16,
	}
}

// Validate reports an error for inconsistent device parameters.
func (c *Config) Validate() error {
	if c.SMs < 1 {
		return fmt.Errorf("sim: config: SMs must be >= 1, got %d", c.SMs)
	}
	if c.PCIeBytesPerNS <= 0 {
		return fmt.Errorf("sim: config: PCIeBytesPerNS must be positive, got %g", c.PCIeBytesPerNS)
	}
	if c.SlowdownCap < 1 {
		return fmt.Errorf("sim: config: SlowdownCap must be >= 1, got %g", c.SlowdownCap)
	}
	if c.InterferenceBeta < 0 {
		return fmt.Errorf("sim: config: InterferenceBeta must be >= 0, got %g", c.InterferenceBeta)
	}
	return nil
}

// Context is a simulated GPU context. Kernels launched into a context's
// device queues are collectively capped at SMLimit SMs (0 = unrestricted),
// mirroring MPS contexts created with cuCtxCreate_v3 SM affinity. A context
// with Isolated set also receives a private memory-bandwidth slice
// proportional to its SM share, modeling MIG hardware partitions.
type Context struct {
	gpu *GPU
	id  int

	// SMLimit caps the SMs usable by all kernels of this context combined;
	// 0 means no restriction.
	SMLimit int
	// Isolated grants the context a private bandwidth slice (MIG-style);
	// non-isolated contexts contend on the shared bandwidth pool (MPS-style).
	Isolated bool
	// Priority orders hardware dispatch: higher-priority contexts take the
	// SMs they want before lower tiers share the remainder. Equal priorities
	// share fairly, as Volta+ hardware schedulers do (paper footnote 1).
	Priority int

	label string
	owner int // OwnerTag-encoded client slot, 0 = unowned
}

// ID returns the context's device-unique identifier.
func (c *Context) ID() int { return c.id }

// OwnerTag encodes a deploying client's slot ID for ContextOptions.Owner.
// The encoding reserves 0 (the field's zero value) for "unowned", so
// schedulers can tag contexts without a sentinel colliding with client 0.
func OwnerTag(clientID int) int { return clientID + 1 }

// Owner decodes the context's owner tag: the deploying client's slot ID and
// whether the context is owned at all. Invariant checkers use it to attribute
// SM allocations to clients without parsing debug labels.
func (c *Context) Owner() (clientID int, ok bool) {
	if c.owner == 0 {
		return -1, false
	}
	return c.owner - 1, true
}

// SetSMLimit re-restricts the context to limit SMs (0 = unrestricted),
// taking effect immediately for queued and future kernels (a running kernel
// keeps its allocation policy from the next rate recomputation on). This
// models tearing down and re-establishing an MPS context with a different SM
// affinity; callers that want the associated ~50us vacuum charge it
// themselves (e.g. by pausing the queue), as adaptive spatial-sharing
// schedulers like GSLICE do.
func (c *Context) SetSMLimit(limit int) error {
	if limit < 0 || limit > c.gpu.cfg.SMs {
		return fmt.Errorf("sim: context %q: SMLimit %d out of range [0,%d]", c.label, limit, c.gpu.cfg.SMs)
	}
	if limit != c.SMLimit {
		c.SMLimit = limit
		c.gpu.reschedule()
	}
	return nil
}

// Label returns the debug label given at creation.
func (c *Context) Label() string { return c.label }

// launchRecord is a kernel sitting in (or running from) a device queue.
type launchRecord struct {
	k      *Kernel
	onDone func(at Time)
}

// Queue is a device queue (ring buffer in real hardware): kernels in one
// queue execute in FIFO order, one at a time; concurrency happens across
// queues. A queue belongs to exactly one context and inherits its SM limit,
// isolation and priority.
type Queue struct {
	ctx     *Context
	id      int
	pending []launchRecord
	run     *exec // currently executing head, nil if idle
	paused  bool
	label   string
}

// Context returns the owning context.
func (q *Queue) Context() *Context { return q.ctx }

// Len reports the number of kernels in the queue, including the running one.
func (q *Queue) Len() int {
	n := len(q.pending)
	if q.run != nil {
		n++
	}
	return n
}

// Idle reports whether the queue has no running and no pending kernels.
func (q *Queue) Idle() bool { return q.run == nil && len(q.pending) == 0 }

// Label returns the debug label given at creation.
func (q *Queue) Label() string { return q.label }

// Pause stops the queue from dispatching its next pending kernel. A kernel
// already executing is not preempted (GPU kernels are un-preemptable); it
// runs to completion. Used by time-slicing schedulers.
func (q *Queue) Pause() {
	if !q.paused {
		q.paused = true
		q.ctx.gpu.touch(q)
		// A queue that is mid-kernel or has nothing queued dispatches nothing
		// either way: pausing it leaves the runnable set untouched.
		if q.run != nil || len(q.pending) == 0 {
			q.ctx.gpu.rescheduleLight()
		} else {
			q.ctx.gpu.reschedule()
		}
	}
}

// Resume re-enables dispatch from the queue.
func (q *Queue) Resume() {
	if q.paused {
		q.paused = false
		q.ctx.gpu.touch(q)
		// Only a resumable head (idle queue with a backlog) can change the
		// runnable set.
		if q.run != nil || len(q.pending) == 0 {
			q.ctx.gpu.rescheduleLight()
		} else {
			q.ctx.gpu.reschedule()
		}
	}
}

// Paused reports whether the queue is paused.
func (q *Queue) Paused() bool { return q.paused }

// PendingKernel is one launch record removed from a queue before execution.
type PendingKernel struct {
	K      *Kernel
	OnDone func(at Time)
}

// CancelPending drops every pending (not yet executing) kernel from the
// queue and returns the removed records so the caller can settle their
// completion bookkeeping — crash teardown for a departed client. The running
// kernel, if any, is not preempted (GPU kernels are un-preemptable) and
// completes normally. Removal is reported to RemovalTracer subscribers.
func (q *Queue) CancelPending() []PendingKernel {
	if len(q.pending) == 0 {
		return nil
	}
	g := q.ctx.gpu
	out := make([]PendingKernel, len(q.pending))
	var ks []*Kernel
	if len(g.removalTracers) > 0 {
		ks = make([]*Kernel, len(q.pending))
	}
	for i, rec := range q.pending {
		out[i] = PendingKernel{K: rec.k, OnDone: rec.onDone}
		if ks != nil {
			ks[i] = rec.k
		}
	}
	q.pending = q.pending[:0]
	g.touch(q)
	for _, t := range g.removalTracers {
		t.KernelsRemoved(g.eng.Now(), q, ks)
	}
	// Dropping pending (never-started) kernels leaves every running kernel
	// and rate untouched: the light pass replays the snapshot and completion
	// re-arm without recomputation.
	g.rescheduleLight()
	return out
}

// exec is a kernel in flight. exec objects are pooled by the owning GPU:
// retirement recycles them, so holding one past its KernelEnd is invalid.
type exec struct {
	q         *Queue
	rec       launchRecord
	remaining float64 // compute: SM*ns of work left; memcpy: bytes left
	rate      float64 // compute: effective SMs; memcpy: bytes per ns
	alloc     float64 // compute: SMs granted before slowdown (for accounting)
	demand    float64 // compute: SMs wanted under the context cap
	started   Time
	allocIntg float64 // integral of alloc over time, for avg-SM tracing
	grpIdx    int     // assignRates scratch: context-group rank within a tier
}

// GPU is the simulated device. Create one per experiment with NewGPU, create
// contexts and queues, and enqueue kernels; the GPU schedules itself on the
// shared Engine. GPU is not safe for concurrent use (the simulation is
// single-threaded).
type GPU struct {
	eng *Engine
	cfg Config

	contexts []*Context
	queues   []*Queue
	// busy is a bitset over queue IDs: bit q.id is set while the queue is
	// running a kernel or can dispatch one (see touch). The per-event scans
	// walk it in ascending ID — the order of queues — so they cost O(busy
	// queues) while folding floating-point sums in the same order as a walk
	// over every queue.
	busy []uint64

	completion   *Event
	onCompletion func() // cached completion callback (one closure per device)
	lastAcct     Time

	// accounting
	busySMIntegral float64 // integral of allocated compute SMs over time (SM*ns)
	anyBusyTime    Time    // total time with >= 1 compute kernel running
	lastAnyBusy    bool
	kernelsDone    int64
	memUsed        int64

	tracers        []Tracer
	allocTracers   []AllocationTracer
	enqTracers     []EnqueueTracer
	removalTracers []RemovalTracer
	loadBuf        []QueueLoad

	// Hot-path scratch, reused across reschedule passes so the steady-state
	// event loop allocates nothing. execBuf and cbBuf are taken (swapped to
	// nil) for the duration of a pass because completion callbacks re-enter
	// reschedule; the assignRates buffers below them never live across a
	// callback and are reused directly.
	execBuf  []*exec
	cbBuf    []launchRecord
	execPool []*exec // recycled exec records

	computeBuf []*exec
	dmaBuf     []*exec
	tierBuf    []*exec
	groupBuf   []ctxGroup
	demandBuf  []float64
	grantBuf   []float64
	kdBuf      []float64
	kgBuf      []float64
	unsatBuf   []int
	isoBuf     []float64 // per-context isolated-bandwidth demand, by ctx id

	// launchFree pools deferred-enqueue records (Enqueue with a future
	// launch time — every host-charged kernel launch). Each entry carries
	// its own fire closure, built once, so steady-state deferred launches
	// allocate nothing.
	launchFree []*launchEvent
}

// launchEvent defers one Enqueue to its launch time; pooled on the GPU.
// fn is the pre-bound method value for run, minted once per event so the
// pooled steady state schedules without allocating.
type launchEvent struct {
	g   *GPU
	q   *Queue
	rec launchRecord
	fn  func()
}

func (le *launchEvent) run() {
	q, rec := le.q, le.rec
	le.q, le.rec = nil, launchRecord{}
	le.g.launchFree = append(le.g.launchFree, le)
	q.enqueueNow(rec)
}

// deferEnqueue schedules rec to join q at time at, reusing a pooled
// launchEvent (and its closure) when one is free. Pool misses mint a chunk
// at a time: deferred launches arrive in bursts (one per squad kernel), so
// amortizing the struct allocation cuts the cold-start cost of a fresh
// device by ~8x.
func (g *GPU) deferEnqueue(at Time, q *Queue, rec launchRecord) {
	if len(g.launchFree) == 0 {
		chunk := make([]launchEvent, 8)
		for i := range chunk {
			le := &chunk[i]
			le.g = g
			le.fn = le.run
			g.launchFree = append(g.launchFree, le)
		}
	}
	n := len(g.launchFree)
	le := g.launchFree[n-1]
	g.launchFree[n-1] = nil
	g.launchFree = g.launchFree[:n-1]
	le.q, le.rec = q, rec
	g.eng.Schedule(at, le.fn)
}

// NewGPU creates a device with the given configuration, scheduled on eng.
// It panics if the configuration is invalid (a programming error).
func NewGPU(eng *Engine, cfg Config) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &GPU{eng: eng, cfg: cfg}
}

// Config returns the device configuration.
func (g *GPU) Config() Config { return g.cfg }

// Engine returns the simulation engine driving this device.
func (g *GPU) Engine() *Engine { return g.eng }

// ContextOptions configures NewContext.
type ContextOptions struct {
	// SMLimit caps SM usage (0 = unrestricted).
	SMLimit int
	// Isolated gives the context a private bandwidth slice (MIG-style).
	Isolated bool
	// Priority tiers hardware dispatch (higher first; default 0).
	Priority int
	// Label is a free-form debug label.
	Label string
	// NoMemCharge skips the per-context device-memory charge (used by
	// tests and by schedulers that account for context memory themselves).
	NoMemCharge bool
	// Owner tags the context with the deploying client's slot, encoded with
	// OwnerTag (the zero value means unowned). Invariant checkers rely on the
	// tag to attribute allocations and quotas per client.
	Owner int
}

// NewContext creates a GPU context. Each context consumes ContextMemBytes of
// device memory unless NoMemCharge is set; creation fails if memory is
// exhausted.
func (g *GPU) NewContext(opts ContextOptions) (*Context, error) {
	if opts.SMLimit < 0 || opts.SMLimit > g.cfg.SMs {
		return nil, fmt.Errorf("sim: context %q: SMLimit %d out of range [0,%d]", opts.Label, opts.SMLimit, g.cfg.SMs)
	}
	if !opts.NoMemCharge {
		if err := g.AllocMemory(g.cfg.ContextMemBytes); err != nil {
			return nil, fmt.Errorf("sim: context %q: %w", opts.Label, err)
		}
	}
	c := &Context{
		gpu:      g,
		id:       len(g.contexts),
		SMLimit:  opts.SMLimit,
		Isolated: opts.Isolated,
		Priority: opts.Priority,
		label:    opts.Label,
		owner:    opts.Owner,
	}
	g.contexts = append(g.contexts, c)
	return c, nil
}

// NewQueue creates a device queue bound to the context.
func (c *Context) NewQueue(label string) *Queue {
	g := c.gpu
	q := &Queue{ctx: c, id: len(g.queues), label: label}
	g.queues = append(g.queues, q)
	if q.id>>6 >= len(g.busy) {
		g.busy = append(g.busy, 0)
	}
	return q
}

// touch recomputes q's bit in the busy set. Call it after any change to
// q.run, q.paused or q.pending.
func (g *GPU) touch(q *Queue) {
	bit := uint64(1) << (q.id & 63)
	if q.run != nil || (!q.paused && len(q.pending) > 0) {
		g.busy[q.id>>6] |= bit
	} else {
		g.busy[q.id>>6] &^= bit
	}
}

// AllocMemory reserves device memory, failing with an error that unwraps to
// ErrOutOfMemory when capacity is exceeded.
func (g *GPU) AllocMemory(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("sim: negative allocation %d", bytes)
	}
	if g.memUsed+bytes > g.cfg.MemoryBytes {
		return fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, bytes, g.cfg.MemoryBytes-g.memUsed)
	}
	g.memUsed += bytes
	return nil
}

// FreeMemory releases device memory previously reserved with AllocMemory.
func (g *GPU) FreeMemory(bytes int64) {
	g.memUsed -= bytes
	if g.memUsed < 0 {
		g.memUsed = 0
	}
}

// MemUsed reports currently reserved device memory in bytes.
func (g *GPU) MemUsed() int64 { return g.memUsed }

// ErrOutOfMemory indicates a device memory allocation could not be satisfied.
var ErrOutOfMemory = fmt.Errorf("sim: out of device memory")

// Tracer observes kernel execution on the device; attach one with AddTracer
// to reconstruct timelines (Gantt charts, utilization traces). Callbacks run
// synchronously inside the simulation loop and must not mutate device state.
type Tracer interface {
	// KernelStart fires when a kernel begins executing (reaches its queue
	// head and receives an allocation).
	KernelStart(at Time, queue *Queue, k *Kernel)
	// KernelEnd fires when the kernel retires; avgSMs is its time-averaged
	// SM allocation over the execution.
	KernelEnd(at Time, queue *Queue, k *Kernel, avgSMs float64)
}

// QueueLoad is one queue's instantaneous state in an allocation snapshot:
// what is running, the SMs it was granted and wanted, and the backlog behind
// it. Snapshots are handed to AllocationTracer subscribers; the slice and its
// entries are only valid for the duration of the callback (the device reuses
// the buffer), so observers must copy what they keep.
type QueueLoad struct {
	// Queue is the observed queue (its Context carries SMLimit and Owner).
	Queue *Queue
	// Running is the executing kernel, nil when the queue head is idle.
	Running *Kernel
	// Alloc is the SMs granted to the running compute kernel (0 for memcpy
	// or idle queues).
	Alloc float64
	// Demand is the SMs the running compute kernel wants under its context's
	// SM cap.
	Demand float64
	// Want is the unrestricted SM appetite of the queue's head — the running
	// kernel's saturation-bounded demand ignoring context caps, or the next
	// pending kernel's when the queue is idle or paused with a backlog. It is
	// what the queue could use if every restriction were lifted, the quantity
	// quota and bubble invariants compare allocations against.
	Want float64
	// Pending counts kernels queued behind the running one.
	Pending int
	// Paused reports whether dispatch from the queue is suspended.
	Paused bool
}

// AllocationTracer extends Tracer: implementations are additionally notified
// every time the device recomputes SM allocations (enqueue, completion,
// pause/resume, SM-limit changes), with a snapshot of every queue's load.
// Between notifications allocations are piecewise-constant, so integrating
// the snapshots reconstructs the exact allocation history — the substrate of
// the invariant checker's conservation, quota and bubble accounting. The
// callback runs synchronously inside the simulation loop; it must not mutate
// device state and must copy any load it retains.
type AllocationTracer interface {
	Tracer
	AllocationsChanged(at Time, loads []QueueLoad)
}

// EnqueueTracer extends Tracer: implementations additionally observe every
// kernel joining a device queue, which makes per-queue FIFO order checkable
// (a started kernel must be the oldest enqueued-but-unstarted one).
type EnqueueTracer interface {
	Tracer
	KernelEnqueued(at Time, queue *Queue, k *Kernel)
}

// RemovalTracer extends Tracer: implementations additionally observe kernels
// removed from a queue's pending backlog without executing (client-crash
// teardown via Queue.CancelPending), which keeps FIFO and conservation
// bookkeeping exact across client churn.
type RemovalTracer interface {
	Tracer
	KernelsRemoved(at Time, queue *Queue, ks []*Kernel)
}

// AddTracer attaches a tracer alongside any already attached; all tracers
// observe every kernel, in attachment order. Tracers also implementing
// AllocationTracer or EnqueueTracer receive the extended notifications. nil
// tracers are ignored. With no tracers attached, the kernel hot path performs
// no tracing work and no allocations.
func (g *GPU) AddTracer(t Tracer) {
	if t == nil {
		return
	}
	g.tracers = append(g.tracers, t)
	if at, ok := t.(AllocationTracer); ok {
		g.allocTracers = append(g.allocTracers, at)
	}
	if et, ok := t.(EnqueueTracer); ok {
		g.enqTracers = append(g.enqTracers, et)
	}
	if rt, ok := t.(RemovalTracer); ok {
		g.removalTracers = append(g.removalTracers, rt)
	}
}

// RemoveTracer detaches a previously attached tracer (a no-op if absent).
func (g *GPU) RemoveTracer(t Tracer) {
	for i, have := range g.tracers {
		if have == t {
			g.tracers = append(g.tracers[:i], g.tracers[i+1:]...)
			break
		}
	}
	if at, ok := t.(AllocationTracer); ok {
		for i, have := range g.allocTracers {
			if have == at {
				g.allocTracers = append(g.allocTracers[:i], g.allocTracers[i+1:]...)
				break
			}
		}
	}
	if et, ok := t.(EnqueueTracer); ok {
		for i, have := range g.enqTracers {
			if have == et {
				g.enqTracers = append(g.enqTracers[:i], g.enqTracers[i+1:]...)
				break
			}
		}
	}
	if rt, ok := t.(RemovalTracer); ok {
		for i, have := range g.removalTracers {
			if have == rt {
				g.removalTracers = append(g.removalTracers[:i], g.removalTracers[i+1:]...)
				break
			}
		}
	}
}

// notifyEnqueued tells enqueue tracers a kernel joined q's pending list.
func (g *GPU) notifyEnqueued(q *Queue, k *Kernel) {
	for _, t := range g.enqTracers {
		t.KernelEnqueued(g.eng.Now(), q, k)
	}
}

// Loads snapshots every queue's instantaneous load into buf (reused when
// capacity allows). The Want field covers the running kernel or, for idle and
// paused queues with a backlog, the head pending kernel.
func (g *GPU) Loads(buf []QueueLoad) []QueueLoad {
	buf = buf[:0]
	for _, q := range g.queues {
		ql := QueueLoad{Queue: q, Pending: len(q.pending), Paused: q.paused}
		if e := q.run; e != nil {
			ql.Running = e.rec.k
			ql.Alloc = e.alloc
			ql.Demand = e.demand
			if e.rec.k.IsCompute() {
				ql.Want = float64(e.rec.k.SMDemand(0, g.cfg.SMs))
			}
		} else if len(q.pending) > 0 {
			if head := q.pending[0].k; head.IsCompute() {
				ql.Want = float64(head.SMDemand(0, g.cfg.SMs))
			}
		}
		buf = append(buf, ql)
	}
	return buf
}

// Enqueue submits a kernel to the queue at virtual time at (>= now; the
// caller charges host-side launch latency itself, typically via Host). onDone
// fires when the kernel completes; it may be nil. Enqueue panics on an
// invalid kernel — launching garbage is a programming error, matching CUDA's
// behavior of failing the launch.
func (q *Queue) Enqueue(at Time, k *Kernel, onDone func(at Time)) {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	g := q.ctx.gpu
	if at <= g.eng.Now() {
		q.enqueueNow(launchRecord{k: k, onDone: onDone})
		return
	}
	g.deferEnqueue(at, q, launchRecord{k: k, onDone: onDone})
}

// enqueueNow appends the record and brings the device up to date. When the
// queue is already executing a kernel (or is paused), the new arrival cannot
// change the runnable set or any rate, so the cheap light pass suffices.
func (q *Queue) enqueueNow(rec launchRecord) {
	g := q.ctx.gpu
	blocked := q.run != nil || q.paused
	q.pending = append(q.pending, rec)
	g.touch(q)
	g.notifyEnqueued(q, rec.k)
	if blocked {
		g.rescheduleLight()
	} else {
		g.reschedule()
	}
}

// newExec takes a zeroed exec record from the pool (or allocates one).
func (g *GPU) newExec() *exec {
	if n := len(g.execPool); n > 0 {
		e := g.execPool[n-1]
		g.execPool[n-1] = nil
		g.execPool = g.execPool[:n-1]
		return e
	}
	return &exec{}
}

// freeExec recycles a retired exec. The record must no longer be reachable
// from any queue (q.run cleared) and its launchRecord already copied out.
func (g *GPU) freeExec(e *exec) {
	*e = exec{}
	g.execPool = append(g.execPool, e)
}

// popPending removes and returns the queue's head record, sliding the backlog
// down so the slice keeps its capacity (a [1:] reslice would leak the front
// and re-allocate on every enqueue/dispatch cycle).
func (q *Queue) popPending() launchRecord {
	rec := q.pending[0]
	copy(q.pending, q.pending[1:])
	q.pending[len(q.pending)-1] = launchRecord{}
	q.pending = q.pending[:len(q.pending)-1]
	return rec
}

// runningExecs appends the execs currently eligible to run to buf (reused
// when capacity allows), in queue order, starting queued heads as needed.
func (g *GPU) runningExecs(buf []*exec) []*exec {
	out := buf[:0]
	for w, word := range g.busy {
		for ; word != 0; word &= word - 1 {
			q := g.queues[w<<6|bits.TrailingZeros64(word)]
			if q.run == nil { // busy and idle: an unpaused backlog to start
				rec := q.popPending()
				e := g.newExec()
				e.q, e.rec, e.started = q, rec, g.eng.Now()
				if rec.k.IsCompute() {
					e.remaining = float64(rec.k.Work)
				} else {
					e.remaining = float64(rec.k.Bytes)
				}
				q.run = e
				for _, t := range g.tracers {
					t.KernelStart(e.started, q, rec.k)
				}
			}
			out = append(out, q.run)
		}
	}
	return out
}

// advance integrates in-flight work from the last accounting instant to now
// at the rates computed by the previous update pass.
func (g *GPU) advance() {
	now := g.eng.Now()
	dt := float64(now - g.lastAcct)
	if dt > 0 {
		for w, word := range g.busy {
			for ; word != 0; word &= word - 1 {
				e := g.queues[w<<6|bits.TrailingZeros64(word)].run
				if e == nil {
					continue
				}
				e.remaining -= e.rate * dt
				if e.remaining < 0 {
					e.remaining = 0
				}
				if e.rec.k.IsCompute() {
					g.busySMIntegral += e.alloc * dt
					e.allocIntg += e.alloc * dt
				}
			}
		}
		if g.lastAnyBusy {
			g.anyBusyTime += now - g.lastAcct
		}
	}
	g.lastAcct = now
}

// reschedule brings the device to a consistent state at the current virtual
// time: it integrates elapsed work, retires finished kernels (starting queued
// successors), recomputes SM allocations and contention slowdowns, and arms
// the next completion event. It must be called whenever the runnable set
// changes (enqueue, pause, resume) and on every completion event.
//
// Completion callbacks run only after the device state is consistent, so they
// may freely enqueue further kernels (which re-enters reschedule).
func (g *GPU) reschedule() {
	g.advance()

	// Take the shared buffers for this pass; completion callbacks re-enter
	// reschedule, so nested passes must not see them (they allocate fresh
	// ones on first use instead). Both are handed back before the callbacks
	// run, once this pass no longer touches them.
	callbacks := g.cbBuf[:0]
	g.cbBuf = nil
	execBuf := g.execBuf
	g.execBuf = nil

	var execs []*exec
	for {
		execs = g.runningExecs(execBuf)
		execBuf = execs
		// Retirement reads only the work advance integrated, never the
		// rates, so rates are assigned once, to the set that retires nothing:
		// a pass over a set that still holds a retiring kernel would be
		// overwritten by the next iteration's.
		finished := false
		for _, e := range execs {
			if e.remaining <= 0.5 {
				e.q.run = nil
				g.touch(e.q)
				g.kernelsDone++
				if len(g.tracers) > 0 {
					avg := 0.0
					if dur := g.eng.Now() - e.started; dur > 0 {
						avg = e.allocIntg / float64(dur)
					}
					for _, t := range g.tracers {
						t.KernelEnd(g.eng.Now(), e.q, e.rec.k, avg)
					}
				}
				if e.rec.onDone != nil {
					callbacks = append(callbacks, e.rec)
				}
				finished = true
				g.freeExec(e)
			}
		}
		if !finished {
			g.assignRates(execs)
			break
		}
	}

	// Record whether any compute kernel is running, for busy-time accounting.
	g.lastAnyBusy = false
	for _, e := range execs {
		if e.rec.k.IsCompute() {
			g.lastAnyBusy = true
			break
		}
	}

	g.armCompletion()
	g.execBuf = execBuf[:0] // last use of execs: hand the buffer back

	// With the device in a consistent state, publish the new allocation
	// picture before completion callbacks run (they may re-enter reschedule
	// and publish again at the same instant — a zero-width interval).
	g.publishAllocations()

	for _, rec := range callbacks {
		rec.onDone(g.eng.Now())
	}
	g.cbBuf = callbacks[:0]
}

// rescheduleLight is the coalescing fast path for events that provably leave
// the runnable set and every rate unchanged: an enqueue onto a busy or paused
// queue, pausing/resuming a queue that cannot dispatch, or dropping pending
// kernels. Recomputing allocations would reproduce the exact same values, so
// the pass skips runningExecs/assignRates entirely — but it must remain
// bit-identical to the full pass in every observable: it integrates elapsed
// work at the same instants (floating-point trajectories are digest-visible),
// re-arms the completion event with the same arithmetic (consuming exactly
// one engine sequence number, like the full pass), and publishes the same
// allocation snapshot. A literal "defer the reschedule behind a dirty flag"
// would drop snapshots and shift event sequence numbers, moving determinism
// digests; this formulation coalesces the O(queues * kernels) recomputation
// while replaying the event-schedule side effects exactly.
func (g *GPU) rescheduleLight() {
	g.advance()
	// If any in-flight kernel has already crossed the retirement threshold,
	// the full pass must retire it (and start successors) now.
	for w, word := range g.busy {
		for ; word != 0; word &= word - 1 {
			if e := g.queues[w<<6|bits.TrailingZeros64(word)].run; e != nil && e.remaining <= 0.5 {
				g.reschedule() // advance again is a no-op (dt = 0)
				return
			}
		}
	}
	// The runnable set is unchanged, so lastAnyBusy keeps its value.
	g.armCompletion()
	g.publishAllocations()
}

// armCompletion re-arms the completion event at the earliest completion of
// the running kernels. A live completion event moves in place
// (Engine.Reschedule: the same firing order and sequence numbers as
// canceling it and scheduling a new one); it is canceled only when nothing
// running makes progress.
func (g *GPU) armCompletion() {
	now := g.eng.Now()
	next := Time(math.MaxInt64)
	for w, word := range g.busy {
		for ; word != 0; word &= word - 1 {
			e := g.queues[w<<6|bits.TrailingZeros64(word)].run
			if e == nil || e.rate <= 0 {
				continue
			}
			d := Time(math.Ceil(e.remaining / e.rate))
			if d < 1 {
				d = 1
			}
			if now+d < next {
				next = now + d
			}
		}
	}
	switch {
	case next == Time(math.MaxInt64):
		if g.completion != nil {
			g.completion.Cancel()
			g.completion = nil
		}
	case g.completion != nil:
		g.eng.Reschedule(g.completion, next)
	default:
		if g.onCompletion == nil {
			g.onCompletion = func() {
				g.completion = nil
				g.reschedule()
			}
		}
		g.completion = g.eng.Schedule(next, g.onCompletion)
	}
}

// publishAllocations snapshots every queue's load to allocation tracers.
func (g *GPU) publishAllocations() {
	if len(g.allocTracers) == 0 {
		return
	}
	g.loadBuf = g.Loads(g.loadBuf)
	for _, t := range g.allocTracers {
		t.AllocationsChanged(g.eng.Now(), g.loadBuf)
	}
}

// ctxGroup is assignRates scratch: one context's kernels within a priority
// tier, as a contiguous [start,end) range of the tier slice after the group
// sort, with the context's summed SM demand.
type ctxGroup struct {
	ctx    *Context
	start  int
	end    int
	demand float64
}

// insertionSortByPrioDesc stable-sorts execs by context priority, highest
// first, preserving original order among equal priorities (moves only on a
// strict comparison). Tiers are tiny and the hot path must not allocate, so
// an insertion sort beats sort.SliceStable's closure and reflection costs.
func insertionSortByPrioDesc(a []*exec) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && a[j].q.ctx.Priority < e.q.ctx.Priority {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// insertionSortByGroup stable-sorts a tier range by group rank, making each
// context's kernels contiguous while preserving their relative order.
func insertionSortByGroup(a []*exec) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && a[j].grpIdx > e.grpIdx {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

// assignRates computes, for the current runnable set, each kernel's SM
// allocation and contention slowdown, then each memcpy's PCIe share. Most
// passes run a lone kernel (about three in four on colocated BLESS load), so
// that case skips the tiering, grouping and water-fills of the many-kernel
// body; it yields the same values bit for bit, which the reference device in
// reference_test.go checks against assignRatesMany.
func (g *GPU) assignRates(execs []*exec) {
	switch len(execs) {
	case 0:
	case 1:
		g.assignLone(execs[0])
	default:
		g.assignRatesMany(execs)
	}
}

// assignLone is assignRatesMany for one running kernel. A lone memcpy owns
// the link. For a lone compute kernel, Kernel.SMDemand already clamps its
// demand to the context's SM limit and to the device, so the context cap is
// a no-op, both water-fills (capacity SMs >= 1, then the context's grant)
// grant the full demand, and the overlap demand never oversubscribes the
// device, so the co-residency term is 1. What remains is the bandwidth
// slowdown against the shared pool or the isolated budget, with the
// many-kernel body's arithmetic (its 0 + d sums are exactly d).
func (g *GPU) assignLone(e *exec) {
	if !e.rec.k.IsCompute() {
		e.rate = g.cfg.PCIeBytesPerNS
		e.alloc = 0
		return
	}
	e.demand = float64(e.rec.k.SMDemand(e.q.ctx.SMLimit, g.cfg.SMs))
	e.alloc = e.demand
	bw := e.demandBW(g.cfg.BWSatOccupancy)
	over := bw - 1
	if e.q.ctx.Isolated {
		budget := float64(e.q.ctx.SMLimit) / float64(g.cfg.SMs)
		if budget <= 0 {
			budget = 1
		}
		over = bw/budget - 1
	}
	slow := 1.0
	if over > 0 {
		slow = 1 + e.rec.k.MemIntensity*over
	}
	if slow > g.cfg.SlowdownCap {
		slow = g.cfg.SlowdownCap
	}
	e.rate = e.alloc / slow
}

// assignRatesMany is the general rate pass: priority tiers, per-context caps,
// max-min sharing of the remainder, bandwidth and co-residency slowdowns, and
// an equal PCIe split among memcpys.
//
// The pass is allocation-free in steady state: partitioning, tier ordering
// and per-context grouping run over buffers reused across passes. Ordering
// works on a copy (tierBuf) so the bandwidth loops below still walk kernels
// in original queue order — floating-point accumulation order is visible in
// determinism digests — and the stable sorts reproduce exactly the first-
// appearance grouping of the map-based formulation they replace.
func (g *GPU) assignRatesMany(execs []*exec) {
	compute := g.computeBuf[:0]
	dma := g.dmaBuf[:0]
	for _, e := range execs {
		if e.rec.k.IsCompute() {
			compute = append(compute, e)
		} else {
			dma = append(dma, e)
		}
	}

	// --- SM allocation ---
	// Order a copy of the compute set by priority tier, highest first.
	tier := append(g.tierBuf[:0], compute...)
	insertionSortByPrioDesc(tier)

	// Within each priority tier, SMs are assigned by hierarchical max-min
	// fairness, modeling the hardware scheduler's fair block dispatch across
	// equal-priority device queues (paper footnote 1): a context with a
	// small (restricted) demand keeps its full share while unrestricted
	// kernels expand into whatever capacity is left — the property the
	// Semi-SP execution mode (§4.4.1) relies on.
	available := float64(g.cfg.SMs)
	groups := g.groupBuf[:0]
	for lo := 0; lo < len(tier); {
		hi := lo + 1
		for hi < len(tier) && tier[hi].q.ctx.Priority == tier[lo].q.ctx.Priority {
			hi++
		}
		// Group kernels by context (first-appearance order): the context's
		// demand is the sum of its kernels' demands, capped by its SM limit.
		groups = groups[:0]
		for _, e := range tier[lo:hi] {
			gi := -1
			for i := range groups {
				if groups[i].ctx == e.q.ctx {
					gi = i
					break
				}
			}
			if gi < 0 {
				gi = len(groups)
				groups = append(groups, ctxGroup{ctx: e.q.ctx})
			}
			e.grpIdx = gi
			e.demand = float64(e.rec.k.SMDemand(e.q.ctx.SMLimit, g.cfg.SMs))
			groups[gi].demand += e.demand
		}
		insertionSortByGroup(tier[lo:hi])
		pos := lo
		for i := range groups {
			groups[i].start = pos
			for pos < hi && tier[pos].grpIdx == i {
				pos++
			}
			groups[i].end = pos
		}

		demands := g.demandBuf[:0]
		for i := range groups {
			d := groups[i].demand
			if groups[i].ctx.SMLimit > 0 && d > float64(groups[i].ctx.SMLimit) {
				d = float64(groups[i].ctx.SMLimit)
			}
			demands = append(demands, d)
		}
		g.demandBuf = demands
		var grants []float64
		grants, g.unsatBuf = waterFillInto(g.grantBuf, demands, available, g.unsatBuf)
		g.grantBuf = grants
		granted := 0.0
		for i := range groups {
			granted += grants[i]
			// Within the context, max-min across its kernels.
			kd := g.kdBuf[:0]
			for _, e := range tier[groups[i].start:groups[i].end] {
				kd = append(kd, float64(e.rec.k.SMDemand(e.q.ctx.SMLimit, g.cfg.SMs)))
			}
			g.kdBuf = kd
			var kg []float64
			kg, g.unsatBuf = waterFillInto(g.kgBuf, kd, grants[i], g.unsatBuf)
			g.kgBuf = kg
			for j, e := range tier[groups[i].start:groups[i].end] {
				e.alloc = kg[j]
			}
		}
		available -= granted
		if available < 0 {
			available = 0
		}
		lo = hi
	}

	// --- Bandwidth contention ---
	// Shared pool: all non-isolated contexts contend on budget 1.0. Each
	// isolated context has a private budget proportional to its SM share,
	// accumulated in isoBuf by context ID (only touched entries are zeroed).
	if n := len(g.contexts); cap(g.isoBuf) < n {
		g.isoBuf = make([]float64, n)
	} else {
		g.isoBuf = g.isoBuf[:n]
	}
	for _, e := range compute {
		if e.q.ctx.Isolated {
			g.isoBuf[e.q.ctx.id] = 0
		}
	}
	sharedDemand := 0.0
	for _, e := range compute {
		d := e.demandBW(g.cfg.BWSatOccupancy)
		if e.q.ctx.Isolated {
			g.isoBuf[e.q.ctx.id] += d
		} else {
			sharedDemand += d
		}
	}
	for _, e := range compute {
		var over float64
		if e.q.ctx.Isolated {
			budget := float64(e.q.ctx.SMLimit) / float64(g.cfg.SMs)
			if budget <= 0 {
				budget = 1
			}
			over = g.isoBuf[e.q.ctx.id]/budget - 1
		} else {
			over = sharedDemand - 1
		}
		slow := 1.0
		if over > 0 {
			slow = 1 + e.rec.k.MemIntensity*over
		}
		// Co-residency penalty: when this kernel's SM scope overlaps other
		// kernels' (either side unrestricted) and the combined demand
		// oversubscribes the device, block interleaving thrashes shared
		// resources. Strictly partitioned (restricted or MIG) contexts on
		// disjoint SM sets never pay this — the asymmetry that makes
		// controlled spatial sharing (§3.3) profitable.
		if beta := g.cfg.InterferenceBeta; beta > 0 && e.alloc > 0 {
			overlapDemand := e.demand
			for _, o := range compute {
				if o == e || o.alloc <= 0 {
					continue // starved kernels occupy no SMs, no thrash
				}
				if e.q.ctx.SMLimit == 0 || o.q.ctx.SMLimit == 0 {
					overlapDemand += o.demand
				}
			}
			if oversub := (overlapDemand - float64(g.cfg.SMs)) / float64(g.cfg.SMs); oversub > 0 {
				slow *= 1 + beta*oversub
			}
		}
		if slow > g.cfg.SlowdownCap {
			slow = g.cfg.SlowdownCap
		}
		e.rate = e.alloc / slow
	}

	// --- PCIe sharing ---
	if n := len(dma); n > 0 {
		share := g.cfg.PCIeBytesPerNS / float64(n)
		for _, e := range dma {
			e.rate = share
			e.alloc = 0
		}
	}

	// Hand the partition/ordering buffers back for the next pass.
	g.computeBuf = compute[:0]
	g.dmaBuf = dma[:0]
	g.tierBuf = tier[:0]
	g.groupBuf = groups[:0]
}

// waterFill distributes capacity across demands by max-min fairness: demands
// at or below the fair share are fully satisfied; the remainder is split
// equally among the rest. The returned grants sum to min(capacity,
// sum(demands)). This allocating form is the reference used by tests; the
// hot path calls waterFillInto with reused scratch.
func waterFill(demands []float64, capacity float64) []float64 {
	grants, _ := waterFillInto(make([]float64, len(demands)), demands, capacity, nil)
	return grants
}

// waterFillInto is waterFill over caller-provided scratch: grants receives
// one grant per demand (grown only if under-capacity) and unsat is the
// round-robin worklist. Both are returned for reuse. The arithmetic is
// identical to the allocating form — the grants are bit-for-bit the same,
// which determinism digests depend on.
func waterFillInto(grants, demands []float64, capacity float64, unsat []int) ([]float64, []int) {
	if cap(grants) < len(demands) {
		grants = make([]float64, len(demands))
	} else {
		grants = grants[:len(demands)]
		for i := range grants {
			grants[i] = 0
		}
	}
	if capacity <= 0 {
		return grants, unsat
	}
	unsat = unsat[:0]
	for i := range demands {
		unsat = append(unsat, i)
	}
	remaining := capacity
	for len(unsat) > 0 {
		share := remaining / float64(len(unsat))
		progressed := false
		next := unsat[:0]
		for _, i := range unsat {
			if demands[i] <= share {
				grants[i] = demands[i]
				remaining -= demands[i]
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progressed {
			// All remaining demands exceed the fair share: split equally.
			share = remaining / float64(len(unsat))
			for _, i := range unsat {
				grants[i] = share
			}
			break
		}
	}
	return grants, unsat
}

// demandBW is the kernel's bandwidth demand at its current allocation:
// intensity scaled by achieved occupancy, with a saturation knee — the
// kernel reaches its full bandwidth demand at BWSatOccupancy of its
// saturation SM count (memory-bound kernels saturate the bus early).
func (e *exec) demandBW(satOcc float64) float64 {
	sat := float64(e.rec.k.SaturationSMs)
	if sat <= 0 {
		return 0
	}
	if satOcc > 0 && satOcc < 1 {
		sat *= satOcc
	}
	f := e.alloc / sat
	if f > 1 {
		f = 1
	}
	return e.rec.k.MemIntensity * f
}

// Stats is a snapshot of device accounting.
type Stats struct {
	// KernelsCompleted counts retired kernels.
	KernelsCompleted int64
	// BusySMTime is the integral of allocated compute SMs over time, in
	// SM-nanoseconds. Divide by (SMs x elapsed) for average utilization.
	BusySMTime float64
	// AnyBusyTime is the total time at least one compute kernel was running.
	AnyBusyTime Time
}

// Stats returns accounting integrated up to the current virtual time.
func (g *GPU) Stats() Stats {
	g.advance()
	return Stats{
		KernelsCompleted: g.kernelsDone,
		BusySMTime:       g.busySMIntegral,
		AnyBusyTime:      g.anyBusyTime,
	}
}

// Utilization returns average SM utilization in [0,1] over the elapsed
// virtual time window [0, now].
func (g *GPU) Utilization() float64 {
	now := g.eng.Now()
	if now == 0 {
		return 0
	}
	s := g.Stats()
	return s.BusySMTime / (float64(g.cfg.SMs) * float64(now))
}

// ActiveSMs returns the number of SMs allocated to running compute kernels
// at this instant — instantaneous occupancy for timeline introspection.
func (g *GPU) ActiveSMs() float64 {
	total := 0.0
	for w, word := range g.busy {
		for ; word != 0; word &= word - 1 {
			if e := g.queues[w<<6|bits.TrailingZeros64(word)].run; e != nil && e.rec.k.IsCompute() {
				total += e.alloc
			}
		}
	}
	return total
}

// Quiescent reports whether no queue holds running or pending kernels.
func (g *GPU) Quiescent() bool {
	for _, q := range g.queues {
		if !q.Idle() {
			return false
		}
	}
	return true
}
