package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
)

// Options configures a Server.
type Options struct {
	// Catalyst enables the paper's mechanism: X-Etag-Config on HTML
	// responses, Service-Worker registration injection, and serving the
	// worker script at core.ServiceWorkerPath.
	Catalyst bool
	// Record enables the §3 alternative: per-session recording of
	// first-visit resource URLs, folded into later ETag maps so that
	// JS-discovered resources are covered on revisits.
	Record bool
	// MapOptions tunes the ETag-map builder.
	MapOptions core.BuildOptions
	// Clock supplies Date headers; nil means the system clock.
	Clock vclock.Clock
	// AccessLogSize keeps a ring of the most recent requests for the
	// debug/metrics endpoint; 0 disables access logging.
	AccessLogSize int
	// MaxRenderBytes bounds the rendered-page cache, which memoizes the
	// extracted reference list, injected body, and derived validator per
	// (path, content ETag) so an unchanged page skips re-parsing and
	// re-hashing on every hit. Zero selects 16 MiB; negative disables it.
	MaxRenderBytes int64
	// RenderCachePolicy selects the eviction and admission policy of the
	// rendered-page cache (and of the delta bases, with Delta); the zero
	// value is exact global LRU. Rendered pages span from landing stubs to
	// huge generated documents, so a size-aware policy can keep many small
	// hot pages instead of one giant one. (CachePolicy, by contrast, is
	// this package's Cache-Control configuration — unrelated.)
	RenderCachePolicy cachestore.Policy
	// Telemetry is the registry the server's counters, the rendered-page
	// cache's counters and a serve-latency histogram live in, under
	// "server.*". Nil selects a private registry, readable through
	// Server.Telemetry.
	Telemetry *telemetry.Registry
	// ServerTiming mirrors each response's cache decisions into a
	// Server-Timing header, the back-channel clients use to annotate
	// their request traces with origin-side decisions.
	ServerTiming bool
	// MaxInflight bounds how many ETag-map resolutions run concurrently —
	// the one stage of a request with fan-out amplification (a page's BFS
	// touches every subresource). A request refused a slot still serves
	// its HTML, just without the map: the client falls back to
	// conventional caching, which degrades latency, not correctness.
	// Zero disables the gate.
	MaxInflight int
	// QueueTimeout bounds how long a request waits for a resolution slot
	// before shedding the map. Zero selects the gate default (50ms).
	QueueTimeout time.Duration
	// RequestBudget, when positive, deadlines each request's context; map
	// resolution inherits the remainder and stops issuing probes when it
	// is spent, so an overloaded server ships partial maps on time
	// instead of complete maps late.
	RequestBudget time.Duration
	// EarlyHints advertises each HTML page's statically extractable
	// subresources as "Link: <url>; rel=preload" response headers — the
	// content of a 103 Early Hints interim response. The simulator's
	// transport (netsim.FetchWithHints) models the interim response
	// racing ahead of the HTML body; on real sockets a front-end would
	// translate the headers into an actual 103. Works with or without
	// Catalyst.
	EarlyHints bool
	// Delta enables delta-encoded HTML (the catalyst-delta scheme): when
	// a request names a previous page version in X-Delta-Base and that
	// version's body is still retained (up to 8 MiB of bases), the server
	// responds with a CCD1 patch (internal/delta) instead of the full
	// body, marked by X-Delta-From. Requires Catalyst (the scheme patches
	// the SW-cached copy).
	Delta bool
}

// Server is the web server under study. It implements http.Handler.
type Server struct {
	content  Content
	opts     Options
	resolver contentResolver // stateless Content→core.Resolver adapter, built once
	recorder *Recorder
	access   *accessLog
	pages    *decorate.Stores           // the decoration pipeline's stores; nil unless Catalyst
	mapGate  *resilience.Gate           // map-resolution admission; nil when disabled
	dateHdr  atomic.Pointer[dateHeader] // per-second Date value cache

	serveNS *telemetry.Histogram
	// The server's counters, held by the registry.
	requests    *telemetry.Counter
	notModified *telemetry.Counter
	notFound    *telemetry.Counter
	bodyBytes   *telemetry.Counter
	mapsBuilt   *telemetry.Counter
	mapBytes    *telemetry.Counter // encoded X-Etag-Config bytes, the overhead the ablations quantify
	mapSheds    *telemetry.Counter // HTML served without a map: the gate (MaxInflight) refused a slot
	hintsSent   *telemetry.Counter // responses carrying Link preload headers (EarlyHints)
}

// dateHeader caches one second's worth of Date header value: HTTP dates
// have second granularity, so every request within the same second shares
// one formatted string (and one header value slice) instead of re-running
// time.Format per serve.
type dateHeader struct {
	unix int64
	val  []string
}

// dateHeaderValue returns the Date header value slice for the current
// clock second, shared across requests. The slice is assigned into header
// maps directly and must never be mutated in place.
func (s *Server) dateHeaderValue() []string {
	now := s.opts.Clock.Now()
	u := now.Unix()
	if c := s.dateHdr.Load(); c != nil && c.unix == u {
		return c.val
	}
	c := &dateHeader{unix: u, val: []string{headers.FormatHTTPDate(now)}}
	s.dateHdr.Store(c)
	return c.val
}

// New returns a server over content.
func New(content Content, opts Options) *Server {
	if opts.Clock == nil {
		opts.Clock = vclock.System{}
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	reg := opts.Telemetry
	s := &Server{
		content:     content,
		opts:        opts,
		resolver:    contentResolver{content: content},
		serveNS:     reg.Histogram("server.serve_ns"),
		requests:    reg.Counter("server.requests"),
		notModified: reg.Counter("server.not_modified"),
		notFound:    reg.Counter("server.not_found"),
		bodyBytes:   reg.Counter("server.body_bytes"),
		mapsBuilt:   reg.Counter("server.maps_built"),
		mapBytes:    reg.Counter("server.map_bytes"),
		mapSheds:    reg.Counter("server.map_sheds"),
		hintsSent:   reg.Counter("server.hints_sent"),
	}
	if opts.Record {
		s.recorder = NewRecorder()
	}
	if opts.AccessLogSize > 0 {
		s.access = newAccessLog(opts.AccessLogSize)
	}
	if opts.Catalyst {
		s.pages = decorate.New(decorate.Options{
			Name:           "server",
			MaxRenderBytes: opts.MaxRenderBytes,
			Delta:          opts.Delta,
			Policy:         opts.RenderCachePolicy,
			Telemetry:      reg,
			ServerTiming:   opts.ServerTiming,
		})
	}
	if opts.MaxInflight > 0 {
		s.mapGate = resilience.NewGate(resilience.GateOptions{
			MaxInflight:  opts.MaxInflight,
			QueueTimeout: opts.QueueTimeout,
			Telemetry:    reg,
			Name:         "server.gate",
		})
	}
	return s
}

// Telemetry returns the registry holding the server's instruments.
func (s *Server) Telemetry() *telemetry.Registry { return s.opts.Telemetry }

// Content returns the content source the server serves.
func (s *Server) Content() Content { return s.content }

// Recorder returns the session recorder, or nil when recording is off.
func (s *Server) Recorder() *Recorder { return s.recorder }

// ServeHTTP implements http.Handler. Each response's cache decisions are
// recorded on the request trace (when the context carries one) and, with
// Options.ServerTiming, mirrored into a Server-Timing header so clients can
// annotate their own traces with the origin's view.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The latency observation wraps serve as a plain call rather than a
	// deferred closure: the closure (and its captured start) would cost an
	// allocation on every request.
	start := time.Now()
	s.serve(w, r)
	s.serveNS.Observe(time.Since(start).Nanoseconds())
}

// decide records one cache decision everywhere it is observable: the
// request trace, and — before the status line is committed — the
// response's Server-Timing header. A method rather than a per-request
// closure; the closure allocated on every serve.
func (s *Server) decide(ctx context.Context, h http.Header, name, detail string) {
	telemetry.Event(ctx, name, detail)
	if s.opts.ServerTiming {
		telemetry.AppendServerTiming(h, name)
	}
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	ctx, span := telemetry.BeginSpan(ctx, "server")
	defer span.End()
	if s.opts.RequestBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = resilience.WithBudget(ctx, s.opts.RequestBudget)
		defer cancel()
	}
	h := w.Header()

	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		s.logAccess(r, http.StatusMethodNotAllowed, 0, 0)
		return
	}
	p := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		p = p + "?" + q
	}

	if s.pages != nil && p == core.ServiceWorkerPath {
		s.decide(ctx, h, "sw-script", p)
		h["Date"] = s.dateHeaderValue()
		status, n := decorate.ServeWorkerScript(w, r)
		s.logAccess(r, status, n, 0)
		return
	}

	res, ok := s.content.Get(p)
	if !ok {
		s.notFound.Add(1)
		s.decide(ctx, h, "not-found", p)
		http.NotFound(w, r)
		s.logAccess(r, http.StatusNotFound, 0, 0)
		return
	}

	// Header values are precomputed slices assigned into the map directly
	// (one bucket write instead of render + canonicalize + slice alloc per
	// header per request). Nothing downstream mutates a stored value slice
	// in place, which is what makes sharing them safe.
	rh := res.headerValues()
	h["Date"] = s.dateHeaderValue()
	h["Content-Type"] = rh.ctype
	if rh.cacheControl != nil {
		h["Cache-Control"] = rh.cacheControl
	}
	if rh.lastModified != nil {
		h["Last-Modified"] = rh.lastModified
	}
	sessionID := ""
	if s.recorder != nil {
		sessionID = s.recorder.SessionID(w, r)
	}

	isHTML := IsHTML(res.ContentType)
	if s.pages != nil && isHTML {
		status, n, mapEntries := s.serveDecorated(ctx, w, r, p, res, sessionID)
		s.count(status, n)
		s.logAccess(r, status, n, mapEntries)
		return
	}
	if s.opts.EarlyHints && isHTML && decorate.AddPreloadLinks(h, core.ExtractPageRefs(p, string(res.Body))) {
		s.hintsSent.Add(1)
		s.decide(ctx, h, "hints", p)
	}
	if s.recorder != nil && !isHTML {
		// Recording mode: remember which subresources this session's
		// page loads actually requested.
		s.recorder.RecordFetch(sessionID, r.Referer(), p)
	}

	h["Etag"] = rh.etag
	if decorate.NotModified(r, res.ETag, res.LastModified) {
		s.decide(ctx, h, "etag-match", p)
		w.WriteHeader(http.StatusNotModified)
		s.count(http.StatusNotModified, 0)
		s.logAccess(r, http.StatusNotModified, 0, 0)
		return
	}
	s.decide(ctx, h, "network", p)
	h["Content-Length"] = rh.clen
	w.WriteHeader(http.StatusOK)
	n := 0
	if r.Method != http.MethodHead {
		n, _ = w.Write(res.Body)
	}
	s.count(http.StatusOK, n)
	s.logAccess(r, http.StatusOK, n, 0)
}

// serveDecorated serves an HTML resource through the decoration pipeline.
// The stored body is the render input and its stored validator the render
// key, so an unchanged page renders once; the map resolves against
// Content exactly on every serve.
func (s *Server) serveDecorated(ctx context.Context, w http.ResponseWriter, r *http.Request, p string, res *Resource, sessionID string) (status, n, mapEntries int) {
	h := w.Header()
	ent := s.pages.Render(p, res.Body, res.headerValues().tagStr)
	if s.opts.EarlyHints && decorate.AddPreloadLinks(h, ent.Refs) {
		s.hintsSent.Add(1)
		s.decide(ctx, h, "hints", p)
	}
	// The resolve phase is the only stage with fan-out amplification, so
	// it alone is gated: a refused request ships its HTML without the map
	// rather than queueing behind a saturated resolver.
	enc := ""
	if err := s.admitMap(ctx); err != nil {
		s.mapSheds.Add(1)
		s.decide(ctx, h, "map-shed", p)
	} else {
		m := s.resolveMap(ctx, p, ent.Refs, sessionID)
		s.releaseMap()
		mapEntries = len(m)
		enc = m.Encode()
		h.Set(core.HeaderName, enc)
		s.mapsBuilt.Add(1)
		s.mapBytes.Add(int64(core.WireSizeOf(enc)))
		s.decide(ctx, h, "map-built", p)
	}
	status, n = s.pages.Respond(ctx, w, r, p, ent, enc, res.LastModified)
	return status, n, mapEntries
}

// count adds one answered request to the status and body counters.
func (s *Server) count(status, n int) {
	if status == http.StatusNotModified {
		s.notModified.Add(1)
	} else if n > 0 {
		s.bodyBytes.Add(int64(n))
	}
}

// resourceHeaders is the wire-format rendering of a Resource's header
// fields, built once per Resource (see Resource.hdr) so the serve path
// assigns shared slices instead of re-formatting per request. The slices
// are shared across responses and must never be mutated in place.
type resourceHeaders struct {
	tagStr       string
	etag         []string
	ctype        []string
	cacheControl []string // nil when the policy emits no Cache-Control
	lastModified []string // nil when the resource has no Last-Modified
	clen         []string // Content-Length of the stored body
}

// headerValues returns the resource's cached header rendering, building it
// on first use. Safe for concurrent callers: racing builders compute
// identical values and the last store wins.
func (r *Resource) headerValues() *resourceHeaders {
	if h := r.hdr.Load(); h != nil {
		return h
	}
	h := &resourceHeaders{
		tagStr: r.ETag.String(),
		ctype:  []string{r.ContentType},
		clen:   []string{strconv.Itoa(len(r.Body))},
	}
	h.etag = []string{h.tagStr}
	if cc := r.Policy.CacheControl(); cc != "" {
		h.cacheControl = []string{cc}
	}
	if !r.LastModified.IsZero() {
		h.lastModified = []string{headers.FormatHTTPDate(r.LastModified)}
	}
	r.hdr.Store(h)
	return h
}

// admitMap acquires a map-resolution slot, or reports that the map should
// be shed; releaseMap frees it. With no gate configured every request is
// admitted for free.
func (s *Server) admitMap(ctx context.Context) error {
	if s.mapGate == nil {
		return nil
	}
	return s.mapGate.AcquireSlot(ctx)
}

func (s *Server) releaseMap() {
	if s.mapGate != nil {
		s.mapGate.Release()
	}
}

// resolveMap runs the resolve phase for an already-extracted page, folding
// in session-recorded resources when recording is enabled. The request's
// context flows into the probe fan-out, so an abandoned request stops
// resolving instead of completing the whole BFS.
func (s *Server) resolveMap(ctx context.Context, pageURL string, refs []core.Ref, sessionID string) core.ETagMap {
	res := &s.resolver
	m := core.ResolveRefsContext(ctx, refs, res, s.opts.MapOptions)
	if s.recorder != nil && sessionID != "" {
		for _, extra := range s.recorder.Recorded(sessionID, pageURL) {
			if _, covered := m[extra]; covered {
				continue
			}
			if t, ok := res.ETagFor(extra); ok {
				m[extra] = t
			}
		}
	}
	return m
}

// contentResolver adapts Content to core.Resolver.
type contentResolver struct {
	content Content
}

func (c *contentResolver) ETagFor(path string) (etag.Tag, bool) {
	r, ok := c.content.Get(path)
	if !ok {
		return etag.Tag{}, false
	}
	return r.ETag, true
}

func (c *contentResolver) StylesheetBody(path string) (string, bool) {
	r, ok := c.content.Get(path)
	if !ok || !IsCSS(r.ContentType) {
		return "", false
	}
	return string(r.Body), true
}
