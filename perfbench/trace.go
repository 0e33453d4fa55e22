package main

import (
	"sync"
	"time"
)

// span is one traced call into a layer: its name, start and end relative to
// the tracer's epoch, the span that caused it (-1 for an op's root) and the
// op it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs f, inside a span when t is non-nil.
func (t *tracer) call(name string, parent, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// selfTimes returns each span name's total self time in seconds: a span's
// duration minus the part of it its child spans cover. Children never
// overlap here, because every traced op issues its layer calls in sequence.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.name] += (s.end - s.start - child[i]).Seconds()
	}
	return out
}

// ops returns the number of distinct ops that recorded a span.
func (t *tracer) ops() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[int]bool)
	for _, s := range t.spans {
		seen[s.op] = true
	}
	return len(seen)
}

// rootSeconds returns the summed duration of every op's root span.
func (t *tracer) rootSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, sp := range t.spans {
		if sp.parent < 0 {
			s += sp.end - sp.start
		}
	}
	return s.Seconds()
}
