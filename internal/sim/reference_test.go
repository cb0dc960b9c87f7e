package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGPU is a naive reference device, the differential oracle for GPU's
// event loop. It shares the rate model with GPU — assignRatesMany (and
// through it waterFillInto and demandBW), the retirement threshold, the
// completion arithmetic and the Config constants — and none of the
// machinery: no busy set, no rescheduleLight, no exec or launch pooling, no
// in-place completion re-arm, no lone-kernel rate case, no single rate pass
// per reschedule. Every device event integrates, starts, rates, retires,
// re-arms and publishes from a walk over all queues.
type refGPU struct {
	eng    *Engine
	cfg    Config
	model  *GPU // hosts assignRatesMany and its scratch; never scheduled
	ctxs   []*Context
	queues []*refQueue
	tr     *diffRecorder

	completion  *Event
	lastAcct    Time
	busySM      float64
	anyBusy     Time
	lastAnyBusy bool
	done        int64
}

type refQueue struct {
	q       *Queue // identity handed to assignRatesMany (q.ctx) and to the recorder
	pending []launchRecord
	run     *exec
	paused  bool
}

func newRefGPU(eng *Engine, cfg Config, tr *diffRecorder) *refGPU {
	return &refGPU{eng: eng, cfg: cfg, model: NewGPU(NewEngine(), cfg), tr: tr}
}

func (r *refGPU) newContext(opts ContextOptions) {
	ctx, err := r.model.NewContext(opts)
	if err != nil {
		panic(err)
	}
	r.ctxs = append(r.ctxs, ctx)
}

func (r *refGPU) newQueue(ctx int) {
	r.queues = append(r.queues, &refQueue{q: r.ctxs[ctx].NewQueue("")})
}

func (r *refGPU) enqueue(qi int, at Time, k *Kernel, onDone func(Time)) {
	rq := r.queues[qi]
	join := func() {
		rq.pending = append(rq.pending, launchRecord{k: k, onDone: onDone})
		r.tr.KernelEnqueued(r.eng.Now(), rq.q, k)
		r.update()
	}
	if at <= r.eng.Now() {
		join()
		return
	}
	r.eng.Schedule(at, join)
}

func (r *refGPU) pause(qi int) {
	if rq := r.queues[qi]; !rq.paused {
		rq.paused = true
		r.update()
	}
}

func (r *refGPU) resume(qi int) {
	if rq := r.queues[qi]; rq.paused {
		rq.paused = false
		r.update()
	}
}

func (r *refGPU) cancelPending(qi int) int {
	rq := r.queues[qi]
	n := len(rq.pending)
	if n == 0 {
		return 0
	}
	ks := make([]*Kernel, n)
	for i, rec := range rq.pending {
		ks[i] = rec.k
	}
	rq.pending = nil
	r.tr.KernelsRemoved(r.eng.Now(), rq.q, ks)
	r.update()
	return n
}

func (r *refGPU) setSMLimit(ci, limit int) {
	if ctx := r.ctxs[ci]; ctx.SMLimit != limit {
		ctx.SMLimit = limit
		r.update()
	}
}

func (r *refGPU) stats() Stats {
	r.integrate()
	return Stats{KernelsCompleted: r.done, BusySMTime: r.busySM, AnyBusyTime: r.anyBusy}
}

// integrate advances every running kernel from the last device event to now.
func (r *refGPU) integrate() {
	now := r.eng.Now()
	if dt := float64(now - r.lastAcct); dt > 0 {
		for _, rq := range r.queues {
			e := rq.run
			if e == nil {
				continue
			}
			e.remaining -= e.rate * dt
			if e.remaining < 0 {
				e.remaining = 0
			}
			if e.rec.k.IsCompute() {
				r.busySM += e.alloc * dt
				e.allocIntg += e.alloc * dt
			}
		}
		if r.lastAnyBusy {
			r.anyBusy += now - r.lastAcct
		}
	}
	r.lastAcct = now
}

// update is the reference's one and only device event: a full recompute.
func (r *refGPU) update() {
	r.integrate()
	now := r.eng.Now()
	var callbacks []launchRecord
	var execs []*exec
	for {
		execs = nil
		for _, rq := range r.queues {
			if rq.run == nil && !rq.paused && len(rq.pending) > 0 {
				rec := rq.pending[0]
				rq.pending = rq.pending[1:]
				e := &exec{q: rq.q, rec: rec, started: now}
				if rec.k.IsCompute() {
					e.remaining = float64(rec.k.Work)
				} else {
					e.remaining = float64(rec.k.Bytes)
				}
				rq.run = e
				r.tr.KernelStart(now, rq.q, rec.k)
			}
			if rq.run != nil {
				execs = append(execs, rq.run)
			}
		}
		r.model.assignRatesMany(execs)
		retired := false
		for _, e := range execs {
			if e.remaining > 0.5 {
				continue
			}
			r.queues[e.q.id].run = nil
			r.done++
			avg := 0.0
			if dur := now - e.started; dur > 0 {
				avg = e.allocIntg / float64(dur)
			}
			r.tr.KernelEnd(now, e.q, e.rec.k, avg)
			if e.rec.onDone != nil {
				callbacks = append(callbacks, e.rec)
			}
			retired = true
		}
		if !retired {
			break
		}
	}
	r.lastAnyBusy = false
	for _, e := range execs {
		if e.rec.k.IsCompute() {
			r.lastAnyBusy = true
		}
	}

	if r.completion != nil {
		r.completion.Cancel()
		r.completion = nil
	}
	next := Time(math.MaxInt64)
	for _, rq := range r.queues {
		e := rq.run
		if e == nil || e.rate <= 0 {
			continue
		}
		d := Time(math.Ceil(e.remaining / e.rate))
		if d < 1 {
			d = 1
		}
		next = min(next, now+d)
	}
	if next != Time(math.MaxInt64) {
		r.completion = r.eng.Schedule(next, func() {
			r.completion = nil
			r.update()
		})
	}

	loads := make([]QueueLoad, 0, len(r.queues))
	for _, rq := range r.queues {
		ql := QueueLoad{Queue: rq.q, Pending: len(rq.pending), Paused: rq.paused}
		if e := rq.run; e != nil {
			ql.Running, ql.Alloc, ql.Demand = e.rec.k, e.alloc, e.demand
			if e.rec.k.IsCompute() {
				ql.Want = float64(e.rec.k.SMDemand(0, r.cfg.SMs))
			}
		} else if len(rq.pending) > 0 && rq.pending[0].k.IsCompute() {
			ql.Want = float64(rq.pending[0].k.SMDemand(0, r.cfg.SMs))
		}
		loads = append(loads, ql)
	}
	r.tr.AllocationsChanged(now, loads)

	for _, rec := range callbacks {
		rec.onDone(now)
	}
}

// diffEvent is one observation of a device, comparable with ==: queues are
// identified by ID, kernels by their (shared) descriptor pointer.
type diffEvent struct {
	kind  byte // 'Q' enqueued, 'S' start, 'E' end, 'R' removed, 'A' allocation sample
	at    Time
	queue int
	k     *Kernel
	avg   float64 // 'E': average SMs; 'R': kernels removed
}

// diffLoad is one queue of an allocation sample; sample indexes the sample's
// 'A' event.
type diffLoad struct {
	sample              int
	queue               int
	running             *Kernel
	alloc, demand, want float64
	pending             int
	paused              bool
}

// diffRecorder records a device's observations. Queue loads that are
// exactly idle (nothing running or pending, not paused, all zero) are left
// out of the record, which keeps it small without loosening the comparison:
// the sample's 'A' event carries the queue count, and a queue that should be
// idle but is not shows up as an extra entry. A runaway simulation is stopped
// at maxDiffEvents.
type diffRecorder struct {
	eng     *Engine
	events  []diffEvent
	loads   []diffLoad
	runaway bool
	lone    [loneKinds]int // allocation samples with one running kernel, by loneKind
}

// Kinds of lone running kernel, which the rate pass handles apart from the
// many-kernel body.
const (
	loneUnrestricted = iota // compute, shared bandwidth, no SM limit
	loneSMLimited           // compute, shared bandwidth, SM-limited context
	loneIsolated            // compute in an Isolated context
	loneDMA                 // a memcpy alone on the link
	loneKinds
)

func loneKind(e QueueLoad) int {
	switch ctx := e.Queue.ctx; {
	case !e.Running.IsCompute():
		return loneDMA
	case ctx.Isolated:
		return loneIsolated
	case ctx.SMLimit > 0:
		return loneSMLimited
	}
	return loneUnrestricted
}

const maxDiffEvents = 200000

func (d *diffRecorder) record(ev diffEvent) {
	d.events = append(d.events, ev)
	if len(d.events) > maxDiffEvents && !d.runaway {
		d.runaway = true
		d.eng.Stop()
	}
}

func (d *diffRecorder) KernelEnqueued(at Time, q *Queue, k *Kernel) {
	d.record(diffEvent{kind: 'Q', at: at, queue: q.id, k: k})
}
func (d *diffRecorder) KernelStart(at Time, q *Queue, k *Kernel) {
	d.record(diffEvent{kind: 'S', at: at, queue: q.id, k: k})
}
func (d *diffRecorder) KernelEnd(at Time, q *Queue, k *Kernel, avg float64) {
	d.record(diffEvent{kind: 'E', at: at, queue: q.id, k: k, avg: avg})
}
func (d *diffRecorder) KernelsRemoved(at Time, q *Queue, ks []*Kernel) {
	d.record(diffEvent{kind: 'R', at: at, queue: q.id, avg: float64(len(ks))})
}
func (d *diffRecorder) AllocationsChanged(at Time, loads []QueueLoad) {
	n := len(d.events)
	d.record(diffEvent{kind: 'A', at: at, queue: len(loads)})
	running, last := 0, QueueLoad{}
	for _, ql := range loads {
		if ql.Running != nil {
			running, last = running+1, ql
		}
		if ql == (QueueLoad{Queue: ql.Queue}) {
			continue
		}
		d.loads = append(d.loads, diffLoad{
			sample: n, queue: ql.Queue.id, running: ql.Running, alloc: ql.Alloc,
			demand: ql.Demand, want: ql.Want, pending: ql.Pending, paused: ql.Paused,
		})
	}
	if running == 1 {
		d.lone[loneKind(last)]++
	}
}

// diffDevice is the driver's view of either device.
type diffDevice interface {
	enqueue(q int, at Time, k *Kernel, onDone func(Time))
	pause(q int)
	resume(q int)
	cancelPending(q int) int
	setSMLimit(ctx, limit int)
	stats() Stats
}

// realDev adapts GPU to diffDevice.
type realDev struct {
	g      *GPU
	ctxs   []*Context
	queues []*Queue
}

func (d *realDev) enqueue(q int, at Time, k *Kernel, onDone func(Time)) {
	d.queues[q].Enqueue(at, k, onDone)
}
func (d *realDev) pause(q int)             { d.queues[q].Pause() }
func (d *realDev) resume(q int)            { d.queues[q].Resume() }
func (d *realDev) cancelPending(q int) int { return len(d.queues[q].CancelPending()) }
func (d *realDev) setSMLimit(ctx, limit int) {
	if err := d.ctxs[ctx].SetSMLimit(limit); err != nil {
		panic(err)
	}
}
func (d *realDev) stats() Stats { return d.g.Stats() }

// diffScenario is a seeded device configuration plus a driver op stream.
type diffScenario struct {
	cfg     Config
	ctxs    []ContextOptions
	queueOf []int // queue i belongs to context queueOf[i]
	kernels []*Kernel
	ops     []diffOp
}

type diffOp struct {
	at    Time
	kind  int // see apply
	queue int
	ctx   int
	limit int
	k     int
	delay Time
	n     int
}

// genDiffScenario generates a seeded scenario. The wide mode spreads 6–23
// contexts over 70–129 queues, more than one word of the busy set. The lone
// mode puts 1–3 queues on three contexts — unrestricted, SM-limited and
// Isolated — so that long stretches run a single kernel, compute or memcpy,
// through the rate pass's lone case.
func genDiffScenario(seed int64, lone bool) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := diffScenario{cfg: DefaultConfig()}
	switch seed % 4 {
	case 1:
		sc.cfg.BWSatOccupancy = 0 // linear bandwidth scaling
	case 2:
		sc.cfg.InterferenceBeta = 0
	case 3:
		sc.cfg.SlowdownCap = 1.3
	}
	nctx := 6 + rng.Intn(18)
	if lone {
		nctx = 3
	}
	for i := 0; i < nctx; i++ {
		o := ContextOptions{NoMemCharge: true, Label: fmt.Sprintf("c%d", i)}
		if rng.Intn(3) > 0 {
			o.SMLimit = 1 + rng.Intn(sc.cfg.SMs)
		}
		o.Isolated = rng.Intn(5) == 0
		if lone {
			o.SMLimit = []int{0, 1 + rng.Intn(sc.cfg.SMs-1), rng.Intn(sc.cfg.SMs)}[i]
			o.Isolated = i == 2
		}
		if rng.Intn(4) == 0 {
			o.Priority = rng.Intn(3)
		}
		sc.ctxs = append(sc.ctxs, o)
	}
	nq := 70 + rng.Intn(60)
	if lone {
		nq = 1 + rng.Intn(3)
	}
	for i := 0; i < nq; i++ {
		sc.queueOf = append(sc.queueOf, rng.Intn(nctx))
	}
	for i := 0; i < 24; i++ {
		var k *Kernel
		switch rng.Intn(6) {
		case 0:
			k = &Kernel{Name: fmt.Sprintf("h2d%d", i), Kind: MemcpyH2D, Bytes: int64(1 + rng.Intn(2<<20))}
		case 1:
			k = &Kernel{Name: fmt.Sprintf("d2h%d", i), Kind: MemcpyD2H, Bytes: int64(1 + rng.Intn(2<<20))}
		default:
			k = &Kernel{
				Name:          fmt.Sprintf("k%d", i),
				Kind:          Compute,
				Work:          Time(1 + rng.Intn(int(400*Microsecond))),
				SaturationSMs: 1 + rng.Intn(sc.cfg.SMs),
				MemIntensity:  rng.Float64(),
			}
		}
		sc.kernels = append(sc.kernels, k)
	}
	const horizon = 4 * Millisecond
	nops := 300 + rng.Intn(300)
	for i := 0; i < nops; i++ {
		op := diffOp{
			at:    Time(rng.Int63n(int64(horizon))),
			kind:  rng.Intn(10),
			queue: rng.Intn(nq),
			ctx:   rng.Intn(nctx),
			limit: rng.Intn(sc.cfg.SMs + 1),
			k:     rng.Intn(len(sc.kernels)),
			delay: Time(rng.Intn(int(200 * Microsecond))),
			n:     1 + rng.Intn(4),
		}
		if rng.Intn(8) == 0 && i > 0 {
			op.at = sc.ops[rng.Intn(i)].at // same-instant ties with earlier ops
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// drive builds the scenario on dev (already holding its contexts and queues)
// and schedules the op stream on eng. Completions relaunch closed-loop with
// decisions that depend only on the order completions are observed in, so
// two devices that agree keep receiving identical inputs.
func (sc *diffScenario) drive(eng *Engine, dev diffDevice) {
	relaunches := 0
	perQueue := make([]int, len(sc.queueOf))
	var onDone func(q, k int) func(Time)
	onDone = func(q, k int) func(Time) {
		return func(at Time) {
			perQueue[q]++
			if relaunches >= 2000 || perQueue[q]%3 == 0 {
				return
			}
			relaunches++
			next := (k + perQueue[q]) % len(sc.kernels)
			delay := Time(perQueue[q]%4) * 7 * Microsecond // 0 relaunches at once
			dev.enqueue(q, at+delay, sc.kernels[next], onDone(q, next))
		}
	}
	for _, op := range sc.ops {
		eng.Schedule(op.at, func() {
			now := eng.Now()
			switch op.kind {
			case 0, 1, 2:
				dev.enqueue(op.queue, now, sc.kernels[op.k], onDone(op.queue, op.k))
			case 3, 4:
				dev.enqueue(op.queue, now+op.delay, sc.kernels[op.k], onDone(op.queue, op.k))
			case 5:
				for i := 0; i < op.n; i++ {
					k := (op.k + i) % len(sc.kernels)
					dev.enqueue(op.queue, now, sc.kernels[k], onDone(op.queue, k))
				}
			case 6:
				dev.pause(op.queue)
			case 7:
				dev.resume(op.queue)
			case 8:
				dev.cancelPending(op.queue)
			case 9:
				dev.setSMLimit(op.ctx, op.limit)
			}
		})
	}
}

func runReal(sc *diffScenario) (*diffRecorder, Stats) {
	eng := NewEngine()
	g := NewGPU(eng, sc.cfg)
	tr := &diffRecorder{eng: eng}
	g.AddTracer(tr)
	dev := &realDev{g: g}
	for _, o := range sc.ctxs {
		ctx, err := g.NewContext(o)
		if err != nil {
			panic(err)
		}
		dev.ctxs = append(dev.ctxs, ctx)
	}
	for _, c := range sc.queueOf {
		dev.queues = append(dev.queues, dev.ctxs[c].NewQueue(""))
	}
	sc.drive(eng, dev)
	eng.Run()
	return tr, dev.stats()
}

func runRef(sc *diffScenario) (*diffRecorder, Stats) {
	eng := NewEngine()
	tr := &diffRecorder{eng: eng}
	r := newRefGPU(eng, sc.cfg, tr)
	for _, o := range sc.ctxs {
		r.newContext(o)
	}
	for _, c := range sc.queueOf {
		r.newQueue(c)
	}
	sc.drive(eng, r)
	eng.Run()
	return tr, r.stats()
}

// TestReferenceGPUAgrees drives the production device and the naive
// reference with the same seeded op streams — immediate, deferred and burst
// enqueues of compute and DMA kernels, pause, resume, CancelPending and
// SetSMLimit over 70+ queues, and again over 1–3 queues where a lone kernel
// of every kind runs — and requires them to agree exactly (tolerance 0) on
// every enqueue, kernel start and end instant, average SM grant, every
// allocation snapshot, and the final accounting.
func TestReferenceGPUAgrees(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	highQueueStarts := 0
	var lone [loneKinds]int
	for _, mode := range []bool{false, true} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sc := genDiffScenario(seed, mode)
			got, gotStats := runReal(&sc)
			want, wantStats := runRef(&sc)
			for _, ev := range got.events {
				if ev.kind == 'S' && ev.queue >= 64 {
					highQueueStarts++
				}
			}
			if err := compareDiff(got, want); err != nil {
				t.Fatalf("seed %d (lone mode %v): %v", seed, mode, err)
			}
			if gotStats != wantStats {
				t.Fatalf("seed %d (lone mode %v): stats %+v, reference %+v", seed, mode, gotStats, wantStats)
			}
			for i, n := range got.lone {
				lone[i] += n
			}
		}
	}
	if highQueueStarts == 0 {
		t.Fatal("no kernel started on a queue past the first busy-set word")
	}
	t.Logf("allocation samples with a lone kernel, by kind: %v", lone)
	for kind, n := range lone {
		if n == 0 {
			t.Errorf("no allocation sample ran a lone kernel of kind %d", kind)
		}
	}
}

func compareDiff(got, want *diffRecorder) error {
	if got.runaway || want.runaway {
		return fmt.Errorf("runaway simulation (device %v, reference %v): over %d events", got.runaway, want.runaway, maxDiffEvents)
	}
	for i := 0; i < len(got.events) && i < len(want.events); i++ {
		if got.events[i] != want.events[i] {
			return fmt.Errorf("event %d: device %+v, reference %+v", i, got.events[i], want.events[i])
		}
	}
	if len(got.events) != len(want.events) {
		return fmt.Errorf("device observed %d events, reference %d", len(got.events), len(want.events))
	}
	for i := 0; i < len(got.loads) && i < len(want.loads); i++ {
		if got.loads[i] != want.loads[i] {
			return fmt.Errorf("allocation sample at event %d: device %+v, reference %+v",
				got.loads[i].sample, got.loads[i], want.loads[i])
		}
	}
	if len(got.loads) != len(want.loads) {
		return fmt.Errorf("device published %d queue loads, reference %d", len(got.loads), len(want.loads))
	}
	if n := len(got.events); n < 100 {
		return fmt.Errorf("only %d events observed: the scenario exercises nothing", n)
	}
	return nil
}
