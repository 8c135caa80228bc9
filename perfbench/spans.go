package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// origin. Spans of one benchmark job share Job; Parent is the ID of the
// span whose work caused this one (0 for a job's root span).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *tracer records nothing, so untraced code paths
// call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   uint64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it. A nil tracer
// returns ID 0 and end is a no-op.
func (t *tracer) begin(name string, parent uint64, job int) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return t.next
}

func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// lookup returns a copy of span id.
func (t *tracer) lookup(id uint64) (span, bool) {
	if t == nil || id == 0 {
		return span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > uint64(len(t.spans)) {
		return span{}, false
	}
	return t.spans[id-1], true
}

// closed returns every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the finished spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanIndex groups finished spans by ID, by name and by parent.
type spanIndex struct {
	byID     map[uint64]span
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byID: map[uint64]span{}, byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of every span called name.
func (ix spanIndex) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.byName[name] {
		out = append(out, s.dur())
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (parallel chunks or
// replications); the covered part is the length of their union, clipped to
// the parent's interval.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

type spanKey struct{}

// withSpan returns ctx carrying span id as the parent of spans started
// below it; spanFrom reads it back (0 when absent).
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}
