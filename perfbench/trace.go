package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded layer call. Times are microseconds from the
// tracer's start. Spans recorded by the benchmark around its own calls
// have source "bench"; spans joined from the server's /debug/traces
// have source "server".
type span struct {
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent,omitempty"`
	Trace   string            `json:"trace"`
	Name    string            `json:"name"`
	Source  string            `json:"source"`
	StartUS float64           `json:"start_us"`
	DurUS   float64           `json:"dur_us"`
	SelfUS  float64           `json:"self_us"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// tracer keeps spans in memory until the run ends. Spans travel in the
// context: a nil *tracer starts no root span, so the layer calls below
// an untraced request find no parent and record nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeSpan is a span that has started and not yet ended.
type activeSpan struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
	tags   map[string]string
}

type spanCtxKey struct{}

// startSpan opens a span named name under the span carried by ctx and
// returns ctx carrying the new span. Without a span in ctx (an untraced
// call) it records nothing.
func startSpan(ctx context.Context, name string) (context.Context, *activeSpan) {
	parent, _ := ctx.Value(spanCtxKey{}).(*activeSpan)
	if parent == nil {
		return ctx, nil
	}
	return parent.t.startIn(ctx, name, parent, "")
}

// startTrace opens the root span of a trace; an empty traceID gets a
// generated one. On a nil tracer it records nothing.
func (t *tracer) startTrace(ctx context.Context, name, traceID string) (context.Context, *activeSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.startIn(ctx, name, nil, traceID)
}

func (t *tracer) startIn(ctx context.Context, name string, parent *activeSpan, traceID string) (context.Context, *activeSpan) {
	sp := &activeSpan{t: t, id: t.nextID.Add(1), name: name, start: time.Now(), trace: traceID}
	if parent != nil {
		sp.parent = parent.id
		sp.trace = parent.trace
	}
	if sp.trace == "" {
		sp.trace = fmt.Sprintf("bench-%d", sp.id)
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// tag attaches a key/value to the span.
func (s *activeSpan) tag(k, v string) *activeSpan {
	if s == nil {
		return nil
	}
	if s.tags == nil {
		s.tags = map[string]string{}
	}
	s.tags[k] = v
	return s
}

// end records the span.
func (s *activeSpan) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.record(span{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name, Source: "bench",
		StartUS: us(s.start.Sub(s.t.t0)), DurUS: us(now.Sub(s.start)), Tags: s.tags,
	})
}

// addExternal records a span measured elsewhere (the server's stage
// spans) under parent, at an absolute start time, and returns it as a
// parent for further external spans.
func (parent *activeSpan) addExternal(name string, start time.Time, d time.Duration, tags map[string]string) *activeSpan {
	if parent == nil {
		return nil
	}
	t := parent.t
	sp := &activeSpan{t: t, id: t.nextID.Add(1), parent: parent.id, trace: parent.trace, name: name, start: start}
	t.record(span{
		ID: sp.id, Parent: sp.parent, Trace: sp.trace, Name: name, Source: "server",
		StartUS: us(start.Sub(t.t0)), DurUS: us(d), Tags: tags,
	})
	return sp
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finish computes every span's self time — its duration minus the union
// of its children's intervals clipped to it — and returns the spans in
// start order with the total self time per span name.
func (t *tracer) finish() ([]span, map[string]float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	selfByName := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		var iv [][2]float64
		for _, c := range children[s.ID] {
			a, b := spans[c].StartUS, spans[c].StartUS+spans[c].DurUS
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				iv = append(iv, [2]float64{a, b})
			}
		}
		s.SelfUS = s.DurUS - unionLength(iv)
		selfByName[s.Source+":"+s.Name] += s.SelfUS
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	return spans, selfByName
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and per-name self times as JSON at path and
// prints the self-time summary.
func (t *tracer) write(p runParams, workload string) error {
	if t == nil || p.traceOut == "" {
		return nil
	}
	spans, self := t.finish()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(p.log, "trace: %d spans; self time by layer:\n", len(spans))
	for _, n := range names {
		fmt.Fprintf(p.log, "  %-32s %12.3f ms\n", n, self[n]/1e3)
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms_by_layer"`
		Spans    []span             `json:"spans"`
	}{workload, p.seed, map[string]float64{}, spans}
	for n, v := range self {
		doc.SelfMS[n] = v / 1e3
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p.traceOut), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(p.traceOut, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(p.log, "trace: spans written to %s\n", p.traceOut)
	return nil
}
