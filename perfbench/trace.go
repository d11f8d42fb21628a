package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/server"
)

// Span layers. Each names the public boundary the benchmark wraps.
const (
	layerRoot       = "root"       // the benchmark's request
	layerClientGet  = "client.get" // catalyst.Client.Get
	layerClientRT   = "client.rt"  // the Client's RoundTripper
	layerTenant     = "tenant"     // tenant.Handler
	layerMiddleware = "middleware" // catalyst.Middleware
	layerInner      = "inner"      // the middleware's inner handler (reverse proxy)
	layerServer     = "server"     // server.Server.ServeHTTP
	layerContent    = "content"    // server.Content.Get
)

// requestIDHeader ties the spans of one request together across layers.
const requestIDHeader = "X-Request-Id"

// span is one timed call at a layer boundary.
type span struct {
	Req   int64  `json:"req"`
	Layer string `json:"layer"`
	Path  string `json:"path,omitempty"`
	Start int64  `json:"start"` // ns since the tracer started
	End   int64  `json:"end"`
	Note  string `json:"note,omitempty"`
}

// maxSpans bounds the in-memory span log.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. The traced replay is
// sequential, so a call that carries no request id (the middleware's
// synthesized probe requests) belongs to the request in flight, cur.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	cur   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) reqID(r *http.Request) int64 {
	if v := r.Header.Get(requestIDHeader); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			return id
		}
	}
	return t.cur.Load()
}

// handler wraps h in a span of the given layer.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Req: t.reqID(r), Layer: layer, Path: r.URL.Path, Start: start, End: t.now()})
	})
}

// tracedContent wraps a server.Content in content spans.
type tracedContent struct {
	tr    *tracer
	inner server.Content
}

func (c tracedContent) Get(p string) (*server.Resource, bool) {
	if !c.tr.on.Load() {
		return c.inner.Get(p)
	}
	start := c.tr.now()
	res, ok := c.inner.Get(p)
	c.tr.add(span{Req: c.tr.cur.Load(), Layer: layerContent, Path: p, Start: start, End: c.tr.now()})
	return res, ok
}

func (c tracedContent) Paths() []string { return c.inner.Paths() }

// tracedTransport wraps a RoundTripper in spans.
type tracedTransport struct {
	tr    *tracer
	inner http.RoundTripper
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.inner.RoundTrip(r)
	}
	start := t.tr.now()
	resp, err := t.inner.RoundTrip(r)
	t.tr.add(span{Req: t.tr.reqID(r), Layer: layerClientRT, Path: r.URL.Path, Start: start, End: t.tr.now()})
	return resp, err
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups spans by request and layer for self-time analysis.
type spanIndex map[int64]map[string][]span

func (t *tracer) index() spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := spanIndex{}
	for _, s := range t.spans {
		byLayer := idx[s.Req]
		if byLayer == nil {
			byLayer = map[string][]span{}
			idx[s.Req] = byLayer
		}
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
	}
	return idx
}

// selfTime is the parent span's duration minus the part of it the child
// spans cover (children may overlap one another: the middleware probes in
// parallel).
func selfTime(p span, kids []span) time.Duration {
	var in []span
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e > s {
			in = append(in, span{Start: s, End: e})
		}
	}
	return time.Duration(p.End - p.Start - union(in))
}

// union is the length of the union of intervals.
func union(in []span) int64 {
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	var n, curS, curE int64
	for i, s := range in {
		if i == 0 || s.Start > curE {
			n += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	return n + curE - curS
}
