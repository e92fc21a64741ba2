package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// step or request share Trace; Parent names the span that caused it (0
// for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Actor  int    `json:"actor"`          // rank or client index
	Kind   string `json:"kind,omitempty"` // GET or PUT for request spans
	Start  int64  `json:"start_ns"`       // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced code paths pay one
// nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name when t is non-nil.
func (t *tracer) timed(name string, trace, parent int64, actor int, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: t.newID(), Parent: parent, Trace: trace, Name: name, Actor: actor, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.add(s)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover, keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	k := append([]span(nil), kids...)
	sort.Slice(k, func(a, b int) bool { return k[a].Start < k[b].Start })
	var total, lo, hi int64
	lo, hi = -1, -1
	for _, c := range k {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b <= a {
			continue
		}
		if a > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = a, b
			continue
		}
		hi = max(hi, b)
	}
	if hi > lo {
		total += hi - lo
	}
	return time.Duration(total)
}

// spanTable prints one line per span name: count, duration p50/p99
// and self-time p50.
func spanTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct{ dur, self []float64 }
	by := map[string]*agg{}
	for _, s := range spans {
		key := s.Name
		if s.Kind != "" {
			key += " " + s.Kind
		}
		a := by[key]
		if a == nil {
			a = &agg{}
			by[key] = a
		}
		a.dur = append(a.dur, ms(s.dur()))
		a.self = append(a.self, ms(self[s.ID]))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %8s %10s %10s %10s\n", "span", "count", "p50_ms", "p99_ms", "self_p50")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-26s %8d %10.4f %10.4f %10.4f\n", n, len(a.dur), pct(a.dur, .5), pct(a.dur, .99), pct(a.self, .5))
	}
}

// --- request tracing across the HTTP hop ---

// spanHeader carries "<trace>:<attempt span id>" from the client's
// transport to the server's handler wrapper.
const spanHeader = "X-Perfbench-Span"

type callKey struct{}

// callInfo is the trace and span of one drxclient call, carried in the
// call's context down to the transport.
type callInfo struct {
	trace, span int64
	actor       int
}

// tracingTransport records one span per transport attempt (request
// sent until its body is closed) and stamps the request ID header.
// Requests whose context carries no callInfo pass straight through.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ci, ok := req.Context().Value(callKey{}).(callInfo)
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := span{ID: t.tr.newID(), Parent: ci.span, Trace: ci.trace, Name: "drxclient.attempt", Actor: ci.actor, Kind: req.Method, Start: t.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(ci.trace, 10)+":"+strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// spanBody ends its attempt span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.add(b.s)
	})
	return err
}

// tracingHandler records a serve.handler span around every request
// that carries the span header.
func tracingHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(spanHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		a, b, _ := strings.Cut(h, ":")
		trace, _ := strconv.ParseInt(a, 10, 64)
		parent, _ := strconv.ParseInt(b, 10, 64)
		s := span{ID: tr.newID(), Parent: parent, Trace: trace, Name: "serve.handler", Kind: r.Method, Start: tr.now()}
		next.ServeHTTP(w, r)
		s.End = tr.now()
		tr.add(s)
	})
}

func withCall(ctx context.Context, ci callInfo) context.Context {
	return context.WithValue(ctx, callKey{}, ci)
}
