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

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // offset from the tracer's origin
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out once, at the end. A nil
// *tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a started span; call end exactly once.
type open struct {
	tr *tracer
	sp span
}

// start opens a span named name under parent (0 = root) for request req.
func (t *tracer) start(name string, parent, req int64) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	// Reserve the slot now so ids are dense and parents precede children.
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return &open{tr: t, sp: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))}}
}

// id returns the span's id for use as a parent (0 when untraced).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.sp.ID
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	o.sp.End = int64(time.Since(o.tr.origin))
	o.tr.mu.Lock()
	o.tr.spans[o.sp.ID-1] = o.sp
	o.tr.mu.Unlock()
	return time.Duration(o.sp.End - o.sp.Start)
}

// timeSpan runs fn inside a span and returns fn's duration, traced or not.
func (t *tracer) timeSpan(name string, parent, req int64, fn func()) time.Duration {
	o := t.start(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	o.end()
	return d
}

// layerTimes aggregates closed spans by name: total duration, self time
// (duration minus the part of its interval its children cover) and count.
type layerTimes struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// selfTimes computes each span name's aggregate self time.
func (t *tracer) selfTimes() []layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTimes{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTimes{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTimes, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// selfOf returns the aggregate self time of the named spans, in ms.
func selfOf(lts []layerTimes, name string) (selfMs float64, count int) {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.SelfMs, lt.Count
		}
	}
	return 0, 0
}

// writeFile writes every span plus the self-time table under .bench_build.
func (t *tracer) writeFile(workload string, seed uint64) (string, error) {
	t.mu.Lock()
	doc := struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Layers   []layerTimes `json:"layers"`
		Spans    []span       `json:"spans"`
	}{workload, seed, nil, append([]span(nil), t.spans...)}
	t.mu.Unlock()
	doc.Layers = t.selfTimes()
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, raw, 0o644)
}
