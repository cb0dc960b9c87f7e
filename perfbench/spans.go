package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it drives. Parent links a span to the one that
// caused it (0 = root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so the untraced passes pay one nil check.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its ID (0 when recording is off).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: time.Since(s.t0)})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = time.Since(s.t0)
}

// durations returns the durations of every closed span named name.
func (s *spans) durations(name string) []time.Duration {
	if s == nil {
		return nil
	}
	var out []time.Duration
	for _, sp := range s.list {
		if sp.Name == name && sp.End > 0 {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// spanStat aggregates the spans of one name: count, total time, and self
// time (total minus the parts of each span its direct children cover).
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summary aggregates spans by name, sorted by self time, largest first.
func (s *spans) summary() []spanStat {
	if s == nil {
		return nil
	}
	child := make([]time.Duration, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent > 0 && sp.End > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*spanStat{}
	for _, sp := range s.list {
		if sp.End == 0 {
			continue
		}
		st := byName[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			byName[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.Count++
		st.Total += d
		st.Self += d - child[sp.ID]
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// write stores the spans as JSON under dir.
func (s *spans) write(dir, file string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

// printSummary writes the span table.
func (s *spans) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range s.summary() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
}
