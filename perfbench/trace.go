package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one per call the
// benchmark makes into a pgarm layer, timed from outside, plus the job,
// checkpoint and request spans that enclose them. Spans are written out once,
// when the run ends, with a rollup for this run alone. All methods are safe
// for concurrent use and no-ops on a nil tracer, so untraced runs pay
// nothing.
type tracer struct {
	run string
	t0  time.Time

	mu      sync.Mutex
	spans   []span
	windows []window
}

// span is one timed interval. Lane names the goroutine that recorded it
// (main, writer or client); Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Lane   string        `json:"lane"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
}

// window is a measured interval of one lane; the spans should cover it.
type window struct {
	Lane  string        `json:"lane"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(lane, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Lane: lane, Start: now, End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(lane, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Lane: lane, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Run: t.run})
	t.mu.Unlock()
}

// measured declares [start, end] a measured window of lane.
func (t *tracer) measured(lane string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.windows = append(t.windows, window{Lane: lane, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// rollup is one span name's totals within this run.
type rollup struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	MaxS   float64 `json:"max_s"`
}

type interval struct{ lo, hi time.Duration }

// coverage is the total length of the union of ivs clipped to [lo, hi].
func coverage(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// summary computes the per-name rollup (self time = a span's duration minus
// the part its children cover) and the unattributed time: how much of the
// measured windows no leaf span covers.
func (t *tracer) summary() ([]rollup, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]interval, len(t.spans))
	hasChild := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			hasChild[s.Parent] = true
		}
	}
	by := map[string]*rollup{}
	leaves := map[string][]interval{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue // never closed: the operation failed mid-span
		}
		r := by[s.Name]
		if r == nil {
			r = &rollup{Name: s.Name}
			by[s.Name] = r
		}
		d := (s.End - s.Start).Seconds()
		r.Count++
		r.TotalS += d
		r.SelfS += d - coverage(children[i], s.Start, s.End).Seconds()
		r.MaxS = max(r.MaxS, d)
		if !hasChild[i] {
			leaves[s.Lane] = append(leaves[s.Lane], interval{s.Start, s.End})
		}
	}
	var unattributed time.Duration
	for _, w := range t.windows {
		unattributed += w.End - w.Start - coverage(leaves[w.Lane], w.Start, w.End)
	}
	out := make([]rollup, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, unattributed
}

// writeFile writes the run's spans, windows and rollup as one JSON document
// and prints the rollup on stdout.
func (t *tracer) writeFile(path string, host map[string]any) error {
	roll, unattributed := t.summary()
	for _, r := range roll {
		fmt.Printf("span %-24s count=%-6d total=%.4fs self=%.4fs max=%.4fs\n", r.Name, r.Count, r.TotalS, r.SelfS, r.MaxS)
	}
	t.mu.Lock()
	doc := struct {
		Run           string         `json:"run"`
		Host          map[string]any `json:"host"`
		UnattributedS float64        `json:"unattributed_s"`
		Rollup        []rollup       `json:"rollup"`
		Windows       []window       `json:"windows"`
		Spans         []span         `json:"spans"`
	}{t.run, host, unattributed.Seconds(), roll, t.windows, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
