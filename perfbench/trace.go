package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public entry point it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // "<layer>.<call>"
	Run    string `json:"run"`    // the simulation replication or served run the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced code paths can share the
// calls.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name, run string, parent int, fn func()) time.Duration {
	id := t.start(name, run, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanTime is the traced wall clock of one span name.
type spanTime struct {
	name        string
	spans       int
	total, self time.Duration
}

// selfTimes folds the spans by name ("<layer>.<call>"), ordered by layer
// and then by self time. A span's self time is its duration minus the
// part its children cover; children of one parent can overlap when they
// run concurrently, so the covered part is the union of their intervals.
func (t *tracer) selfTimes() []spanTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTime{name: s.Name}
			byName[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		st.spans++
		st.total += dur
		st.self += dur - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]spanTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		li, _, _ := strings.Cut(out[i].name, ".")
		lj, _, _ := strings.Cut(out[j].name, ".")
		if li != lj {
			return li < lj
		}
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(kids []span, lo, hi int64) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curLo, curHi int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e <= s {
			continue
		}
		if open && s <= curHi {
			curHi = max(curHi, e)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = s, e, true
	}
	if open {
		sum += curHi - curLo
	}
	return time.Duration(sum)
}

// writeSelfTimes prints the per-layer self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "per-layer self time (traced run):\n  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", st.name, st.spans,
			float64(st.total)/1e6, float64(st.self)/1e6)
	}
}

// writeNDJSON writes the environment stamp, then one span per line.
func (t *tracer) writeNDJSON(path string, e env, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	werr := enc.Encode(struct {
		Env      env    `json:"env"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
	}{e, workload, seed})
	t.mu.Lock()
	for _, s := range t.spans {
		if werr != nil {
			break
		}
		werr = enc.Encode(s)
	}
	t.mu.Unlock()
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
