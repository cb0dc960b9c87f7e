package timeline

import (
	"strings"
	"testing"

	"bless/internal/sim"
)

func TestRecorderCapturesSpans(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	rec := NewRecorder()
	gpu.AddTracer(rec)

	ctx, err := gpu.NewContext(sim.ContextOptions{SMLimit: 54, Label: "clientA", NoMemCharge: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue("qA")
	for i := 0; i < 3; i++ {
		q.Enqueue(0, &sim.Kernel{Name: "k", Kind: sim.Compute, Work: 54 * sim.Millisecond, SaturationSMs: 108}, nil)
	}
	eng.Run()

	if len(rec.Spans) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(rec.Spans))
	}
	var prev sim.Time
	for i, s := range rec.Spans {
		if s.Lane != "clientA" {
			t.Errorf("span %d lane %q, want clientA", i, s.Lane)
		}
		if s.End-s.Start != sim.Millisecond {
			t.Errorf("span %d duration %v, want 1ms", i, s.End-s.Start)
		}
		if s.Start < prev {
			t.Errorf("span %d overlaps its predecessor (queue serialization broken)", i)
		}
		if s.AvgSMs < 53.9 || s.AvgSMs > 54.1 {
			t.Errorf("span %d avg SMs %.1f, want 54", i, s.AvgSMs)
		}
		prev = s.End
	}
	start, end := rec.Window()
	if start != 0 || end != 3*sim.Millisecond {
		t.Errorf("window [%v, %v], want [0, 3ms]", start, end)
	}
}

func TestRecorderLaneOverride(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	rec := NewRecorder()
	rec.LaneOf = func(q *sim.Queue) string { return "custom/" + q.Label() }
	gpu.AddTracer(rec)
	ctx, _ := gpu.NewContext(sim.ContextOptions{NoMemCharge: true})
	ctx.NewQueue("x").Enqueue(0, &sim.Kernel{Name: "k", Kind: sim.Compute, Work: sim.Millisecond, SaturationSMs: 1}, nil)
	eng.Run()
	if len(rec.Spans) != 1 || rec.Spans[0].Lane != "custom/x" {
		t.Errorf("spans = %+v", rec.Spans)
	}
}

func TestRecorderOverlappingKernelsSameQueue(t *testing.T) {
	// When two kernels of one queue overlap in time (starts before ends),
	// the recorder must match ends to starts FIFO — the device delivers
	// per-queue events in launch order.
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	rec := NewRecorder()
	ctx, err := gpu.NewContext(sim.ContextOptions{Label: "c", NoMemCharge: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue("q")
	k1 := &sim.Kernel{Name: "first"}
	k2 := &sim.Kernel{Name: "second"}

	rec.KernelStart(0, q, k1)
	rec.KernelStart(5*sim.Microsecond, q, k2)
	rec.KernelEnd(10*sim.Microsecond, q, k1, 54)
	rec.KernelEnd(20*sim.Microsecond, q, k2, 27)

	if len(rec.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.Spans))
	}
	s1, s2 := rec.Spans[0], rec.Spans[1]
	if s1.Kernel != "first" || s1.Start != 0 || s1.End != 10*sim.Microsecond {
		t.Errorf("first span wrong: %+v", s1)
	}
	if s2.Kernel != "second" || s2.Start != 5*sim.Microsecond || s2.End != 20*sim.Microsecond {
		t.Errorf("second span wrong: %+v", s2)
	}
	if s1.AvgSMs != 54 || s2.AvgSMs != 27 {
		t.Errorf("avg SMs misattributed: %v / %v", s1.AvgSMs, s2.AvgSMs)
	}

	// An unmatched end must be ignored, not panic or fabricate a span.
	rec.KernelEnd(30*sim.Microsecond, q, k1, 1)
	if len(rec.Spans) != 2 {
		t.Errorf("unmatched end fabricated a span: %d spans", len(rec.Spans))
	}
}

func TestRecorderLaneOfMergesQueues(t *testing.T) {
	// A LaneOf override can collapse several queues (e.g. a client's
	// default and SM-restricted contexts) into one display lane.
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	rec := NewRecorder()
	rec.LaneOf = func(*sim.Queue) string { return "merged" }
	gpu.AddTracer(rec)
	for _, name := range []string{"a/default", "a/sm54"} {
		ctx, err := gpu.NewContext(sim.ContextOptions{Label: name, NoMemCharge: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx.NewQueue(name+"/q").Enqueue(0,
			&sim.Kernel{Name: "k", Kind: sim.Compute, Work: sim.Millisecond, SaturationSMs: 1}, nil)
	}
	eng.Run()
	if len(rec.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.Spans))
	}
	if got := rec.Lanes(); len(got) != 1 || got[0] != "merged" {
		t.Errorf("lanes = %v, want [merged]", got)
	}
}

func TestGanttRendersLanesAndBusy(t *testing.T) {
	r := NewRecorder()
	r.Spans = []Span{
		{Lane: "a", Start: 0, End: 50 * sim.Millisecond},
		{Lane: "b", Start: 50 * sim.Millisecond, End: 100 * sim.Millisecond},
	}
	out := r.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3 (two lanes + axis):\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a |") || !strings.Contains(lines[0], "50% busy") {
		t.Errorf("lane a rendering wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "b |") || !strings.Contains(lines[1], "50% busy") {
		t.Errorf("lane b rendering wrong: %q", lines[1])
	}
	// Lane a busy in the first half, lane b in the second.
	aRow := lines[0][strings.Index(lines[0], "|")+1:]
	if aRow[0] != '#' || aRow[35] == '#' {
		t.Errorf("lane a shading wrong: %q", aRow)
	}
}

func TestGanttEmpty(t *testing.T) {
	r := NewRecorder()
	if out := r.Gantt(40); !strings.Contains(out, "no spans") {
		t.Errorf("empty gantt = %q", out)
	}
}

func TestGanttConcurrentLanesShareTimeAxis(t *testing.T) {
	eng := sim.NewEngine()
	gpu := sim.NewGPU(eng, sim.DefaultConfig())
	rec := NewRecorder()
	gpu.AddTracer(rec)
	for _, name := range []string{"c0", "c1"} {
		ctx, _ := gpu.NewContext(sim.ContextOptions{SMLimit: 54, Label: name, NoMemCharge: true})
		q := ctx.NewQueue(name)
		q.Enqueue(0, &sim.Kernel{Name: "k", Kind: sim.Compute, Work: 54 * sim.Millisecond, SaturationSMs: 54}, nil)
	}
	eng.Run()
	out := rec.Gantt(30)
	if !strings.Contains(out, "c0") || !strings.Contains(out, "c1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	// Both ran [0, 1ms] concurrently: both 100% busy.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "c0") || strings.HasPrefix(line, "c1") {
			if !strings.Contains(line, "100% busy") {
				t.Errorf("concurrent lane not fully busy: %q", line)
			}
		}
	}
}
