package catalyst

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// MiddlewareOptions configures Middleware.
type MiddlewareOptions struct {
	// MaxMapBytes caps the *encoded* X-Etag-Config value in bytes; maps
	// that encode larger have entries dropped (highest-sorting paths
	// first) until they fit, so one huge page cannot blow the response
	// head past proxy header limits. 0 means unlimited.
	MaxMapBytes int
	// ProbeTTL bounds how long a subresource's probed ETag may be reused
	// before re-probing the inner handler. Zero selects 1 second — fresh
	// enough that a deployed map is never stale longer than that, cheap
	// enough that hot pages don't probe every sibling per request.
	ProbeTTL time.Duration
	// BreakerThreshold is the number of consecutive failed probes after
	// which a path's circuit breaker opens: the path stops being probed
	// (and stays out of the map) until BreakerCooldown passes. Zero
	// selects 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker suppresses probes of
	// its path. Zero selects 30 seconds.
	BreakerCooldown time.Duration
	// MaxProbeEntries bounds the probe cache. On overflow the
	// least-recently-used probe is evicted — a crawler walking a million
	// distinct paths must not grow server memory without bound, and hot
	// paths must not be collateral damage. Zero selects 4096. Entries are
	// charged by real size (a cached stylesheet body costs its bytes, see
	// probeBaseCost), so a handful of huge stylesheets cannot smuggle
	// unbounded memory past an entry-count reading of this knob.
	MaxProbeEntries int
	// ProbeConcurrency bounds how many subresources of one page are
	// probed at once while its ETag map is resolved, so a cold page with
	// N subresources costs roughly its slowest probe rather than the sum.
	// Concurrent renders still probe each path once: the fan-out dedups
	// through the probe cache's singleflight. Zero selects 8 — probe cost
	// is dominated by the inner handler (I/O, locks), not CPU, so the
	// width deliberately does not track GOMAXPROCS; 1 restores strictly
	// sequential probing.
	ProbeConcurrency int
	// MaxRenderBytes bounds the rendered-page cache, which memoizes the
	// extracted reference list, injected body, and page validator per
	// (path, raw-content hash) so unchanged pages skip re-parsing and
	// re-hashing. Zero selects 16 MiB; negative disables the cache.
	// Freshness is unaffected either way — the X-Etag-Config header is
	// always assembled from live probes.
	MaxRenderBytes int64
	// CachePolicy selects the eviction/admission policy for all three of
	// the middleware's caches (probes, rendered pages, stale copies).
	// The zero value is exact global LRU — the safe default for the hot
	// request path. GDSF keeps small popular entries when probe or
	// render entries vary wildly in size; a TinyLFU admission filter
	// stops crawler-driven one-hit paths from flushing hot pages.
	CachePolicy cachestore.Policy
	// Metrics, when set, receives the middleware's resilience counters
	// (panics recovered, breaker trips, map trims, probe evictions).
	Metrics *MiddlewareMetrics
	// Telemetry, when set, indexes the middleware's counters, both its
	// caches, and an HTML decoration-latency histogram in the given
	// registry under "middleware.*".
	Telemetry *telemetry.Registry
	// MaxInflight bounds how many instrumented GET/HEAD requests may run
	// concurrently. Excess requests wait in a short queue (MaxQueue /
	// QueueTimeout) and are shed down the degradation ladder — stale
	// copy, un-instrumented passthrough, or 503 — instead of piling onto
	// a saturated inner handler. Zero disables admission control.
	MaxInflight int
	// MaxQueue bounds how many shed candidates may wait for a slot; zero
	// selects MaxInflight, negative disables queueing (immediate shed).
	MaxQueue int
	// QueueTimeout bounds how long a request waits for a slot before it
	// is shed. Zero selects 50ms — long enough to ride out a momentary
	// spike, short enough to keep tail latency honest.
	QueueTimeout time.Duration
	// RequestBudget, when positive, puts a wall-clock deadline on every
	// instrumented request. Stages consume from it — probe fan-out stops
	// issuing new probes once the budget is spent — and a request whose
	// budget runs out before map assembly is served its rendered HTML
	// un-instrumented rather than late.
	RequestBudget time.Duration
	// StaleFor is how long a successfully served page may be re-served
	// from the stale cache (with a Warning 110 header, up to 8 MiB of
	// pages) when the inner handler is saturated, erroring, or broken.
	// Zero selects 5 minutes; negative disables stale serving.
	StaleFor time.Duration
	// RetryAfter is the Retry-After hint on ladder-bottom 503 responses.
	// Zero selects 5 seconds.
	RetryAfter time.Duration
	// OriginFailureThreshold enables the inner-handler circuit breaker:
	// after this many consecutive 5xx/panic serves the middleware stops
	// calling the inner handler and answers from the stale cache (or
	// 503) until OriginCooldown passes, then retries with one trial
	// request. Zero disables the breaker — appropriate when the inner
	// handler is in-process; catalystd's proxy mode turns it on so a
	// flapping upstream origin flips to stale-serving instead of
	// error-proxying.
	OriginFailureThreshold int
	// OriginCooldown is the open-breaker hold-off. Zero selects 5s.
	OriginCooldown time.Duration
	// OriginBreaker, when set, is used as the inner-handler breaker
	// instead of constructing one from OriginFailureThreshold — the hook
	// for sharing the breaker with an active health checker
	// (resilience.NewHealthChecker), so recovery is probe-driven rather
	// than cooldown-driven. catalystd's proxy mode wires this.
	OriginBreaker *resilience.Breaker
	// ServerTiming mirrors each decorated response's cache decisions
	// ("map-built", then "etag-match" or "network") into a Server-Timing
	// header so clients can annotate their traces with the origin
	// middleware's view.
	ServerTiming bool
	// EarlyHints sends a 103 Early Hints informational response carrying
	// preload links for the page's subresources as soon as the HTML has
	// rendered — before the probe fan-out and map assembly, which are the
	// slow stages hints let the client overlap. Requires a ResponseWriter
	// that supports 1xx responses (net/http's does; a bare
	// httptest.ResponseRecorder does not — test through httptest.Server).
	EarlyHints bool
	// Exchange, when set, connects the middleware to a cluster hot-map
	// exchange (internal/cluster): freshly assembled X-Etag-Config
	// encodings are published to peers, and a peer-published encoding for
	// the exact entity being served is adopted instead of running the
	// local probe fan-out. Nil disables the exchange.
	Exchange MapExchange
	// Delta enables delta-encoded HTML: recently served page bodies (up
	// to 8 MiB) are retained keyed by their validator, and a request
	// naming one in X-Delta-Base is answered with a CCD1 patch
	// (internal/delta) against that base — marked X-Delta-From — whenever
	// the patch is smaller than the full body. The Etag is always the
	// current entity's.
	Delta bool
}

func (o MiddlewareOptions) breakerThreshold() int {
	if o.BreakerThreshold < 0 {
		return 0 // disabled
	}
	if o.BreakerThreshold == 0 {
		return 3
	}
	return o.BreakerThreshold
}

func (o MiddlewareOptions) probeConcurrency() int {
	if o.ProbeConcurrency != 0 {
		return o.ProbeConcurrency
	}
	return 8
}

// staleFor resolves StaleFor: zero selects 5 minutes, negative keeps no
// stale copies (0).
func (o MiddlewareOptions) staleFor() time.Duration {
	switch {
	case o.StaleFor == 0:
		return 5 * time.Minute
	case o.StaleFor < 0:
		return 0
	}
	return o.StaleFor
}

func (o MiddlewareOptions) retryAfter() time.Duration {
	if o.RetryAfter <= 0 {
		return 5 * time.Second
	}
	return o.RetryAfter
}

// Middleware retrofits CacheCatalyst onto any http.Handler:
//
//   - HTML responses are inspected (the paper's DOM traversal); each
//     same-origin subresource is probed against the inner handler to learn
//     its current ETag, and the resulting map ships in X-Etag-Config.
//   - The Service-Worker registration snippet is injected and the worker
//     script is served at WorkerPath.
//   - Conditional requests against the rewritten HTML are answered 304.
//
// Non-HTML responses stream through untouched — the inner handler executes
// exactly once per request and its body is never buffered — so the
// middleware composes with whatever caching headers the inner handler
// already emits, at passthrough cost independent of body size.
//
// The middleware also hardens the wrapped handler: a panic in the inner
// handler is recovered and answered 500 (never a crashed connection), and
// subresource probing is protected by a per-path circuit breaker so a
// handler that errors on one path cannot be hammered by re-probes.
// Concurrent probes of the same path are collapsed into a single
// inner-handler call.
func Middleware(next http.Handler, opts MiddlewareOptions) http.Handler {
	if opts.ProbeTTL <= 0 {
		opts.ProbeTTL = time.Second
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 30 * time.Second
	}
	if opts.MaxProbeEntries <= 0 {
		opts.MaxProbeEntries = 4096
	}
	if opts.Metrics == nil {
		opts.Metrics = &MiddlewareMetrics{}
	}
	m := &middleware{next: next, opts: opts}
	if opts.Telemetry != nil {
		opts.Metrics.RegisterTelemetry(opts.Telemetry)
		m.htmlNS = opts.Telemetry.Histogram("middleware.html_ns")
	}
	d := &m.def
	d.requestBudget = opts.RequestBudget
	d.probes = cachestore.New[probe](cachestore.Options[probe]{
		// A probe without a retained stylesheet body costs exactly
		// probeBaseCost, so for ordinary entries MaxBytes stays the entry
		// count MaxProbeEntries promises; cached CSS bodies are charged
		// their real bytes on top, so large stylesheets consume
		// proportionally more of the same budget instead of hiding
		// behind a flat per-entry unit.
		MaxBytes: int64(opts.MaxProbeEntries) * probeBaseCost,
		SizeOf: func(_ string, p probe) int64 {
			return probeBaseCost + int64(len(p.cssBody))
		},
		Policy:    opts.CachePolicy,
		OnEvict:   func(string, probe) { opts.Metrics.ProbesSwept.Add(1) },
		Telemetry: opts.Telemetry,
		Name:      "middleware.probes",
	})
	d.pages = decorate.New(decorate.Options{
		Name:            "middleware",
		MaxRenderBytes:  opts.MaxRenderBytes,
		HotIndex:        true,
		StaleFor:        opts.staleFor(),
		Delta:           opts.Delta,
		Policy:          opts.CachePolicy,
		Telemetry:       opts.Telemetry,
		ServerTiming:    opts.ServerTiming,
		RendersEvicted:  &opts.Metrics.RendersEvicted,
		DeltasServed:    &opts.Metrics.DeltasServed,
		DeltaBytesSaved: &opts.Metrics.DeltaBytesSaved,
	})
	if opts.MaxInflight > 0 {
		d.gate = resilience.NewGate(resilience.GateOptions{
			MaxInflight:  opts.MaxInflight,
			MaxQueue:     opts.MaxQueue,
			QueueTimeout: opts.QueueTimeout,
			Telemetry:    opts.Telemetry,
			Name:         "middleware.gate",
		})
	}
	if opts.OriginBreaker != nil {
		d.breaker = opts.OriginBreaker
	} else if opts.OriginFailureThreshold > 0 {
		d.breaker = resilience.NewBreaker(resilience.BreakerOptions{
			FailureThreshold: opts.OriginFailureThreshold,
			Cooldown:         opts.OriginCooldown,
			Telemetry:        opts.Telemetry,
			Name:             "middleware.origin",
		})
	}
	return m
}

// probeBaseCost is the byte charge for one probe-cache entry before its
// retained stylesheet body: a rough stand-in for the key, tag, timestamps
// and map overhead an entry costs regardless of content.
const probeBaseCost = 256

type middleware struct {
	next   http.Handler
	opts   MiddlewareOptions
	htmlNS *telemetry.Histogram // nil without telemetry
	// def is the process-global serving state: the only state a
	// single-tenant deployment ever touches, and the parent every tenant's
	// namespaced state derives from. Requests whose context carries no
	// tenant run against def on the exact pre-tenant code path.
	def tenantState
	// tenants memoizes per-tenant serving state by tenant name, built
	// lazily on a tenant's first request (see stateFor).
	tenants sync.Map // string → *tenantState
}

// tenantState is one tenant's slice of the middleware: its decoration
// stores (rendered pages, hot index, stale copies, delta bases) and probe
// cache — namespaces of the default stores, so they inherit configuration
// but own their bytes and eviction order — its admission gate, its
// upstream breaker, and its probe generation. Dimensioning the state this
// way is what makes the degradation ladder per-tenant: one tenant's
// saturated or flapping upstream trips its own gate and breaker while its
// neighbours serve undisturbed.
type tenantState struct {
	name    string // "" for the default state
	pages   *decorate.Stores
	probes  *cachestore.Store[probe]
	gate    *resilience.Gate    // admission control; nil when disabled
	breaker *resilience.Breaker // inner-handler health; nil when disabled
	// requestBudget is the resolved per-tenant budget (the tenant's own,
	// or the middleware default when unset).
	requestBudget time.Duration
	// probeGen counts observable probe-cache changes: it bumps whenever a
	// probe flight lands a (tag, ok) pair that differs from what the
	// cache held before. While it stands still, every map assembled from
	// the cache is byte-identical, so a render's cached encoding may be
	// reused instead of re-serializing the map per request.
	probeGen atomic.Uint64
}

// stateFor resolves the serving state for a request: the tenant's when the
// context carries one, the default otherwise. The no-tenant path costs one
// context lookup and no allocation — the warm-path budgets pin that.
func (m *middleware) stateFor(r *http.Request) *tenantState {
	t, ok := tenant.FromContext(r.Context())
	if !ok {
		return &m.def
	}
	if v, ok := m.tenants.Load(t.Name); ok {
		return v.(*tenantState)
	}
	return m.buildTenantState(t)
}

// buildTenantState constructs (or loses the race for) a tenant's state.
// The caches are namespaces of the default stores — memoized by name in
// cachestore — so racing builders converge on the same storage; at worst a
// loser's gate and breaker are discarded.
func (m *middleware) buildTenantState(t *tenant.Tenant) *tenantState {
	prefix := "tenant." + t.Name + "."
	ts := &tenantState{name: t.Name, pages: m.def.pages.Tenant(t)}
	ts.probes = m.def.probes.NamespaceWith(t.Name, cachestore.NamespaceOptions{
		TelemetryName: prefix + "probes",
		Policy:        t.PolicyOverride(),
	})
	maxInflight := t.MaxInflight
	if maxInflight == 0 {
		maxInflight = m.opts.MaxInflight
	}
	if maxInflight > 0 {
		ts.gate = resilience.NewGate(resilience.GateOptions{
			MaxInflight:  maxInflight,
			MaxQueue:     m.opts.MaxQueue,
			QueueTimeout: m.opts.QueueTimeout,
			Telemetry:    m.opts.Telemetry,
			Name:         prefix + "gate",
		})
	}
	if t.Breaker != nil {
		// The daemon wired a health-checked breaker: recovery is
		// probe-driven, exactly like OriginBreaker in single-tenant mode.
		ts.breaker = t.Breaker
	} else if m.opts.OriginFailureThreshold > 0 {
		ts.breaker = resilience.NewBreaker(resilience.BreakerOptions{
			FailureThreshold: m.opts.OriginFailureThreshold,
			Cooldown:         m.opts.OriginCooldown,
			Telemetry:        m.opts.Telemetry,
			Name:             prefix + "origin",
		})
	}
	ts.requestBudget = m.def.requestBudget
	if t.RequestBudget > 0 {
		ts.requestBudget = t.RequestBudget
	}
	v, _ := m.tenants.LoadOrStore(t.Name, ts)
	return v.(*tenantState)
}

type probe struct {
	tag     etag.Tag
	cssBody string
	isCSS   bool
	ok      bool
	expires time.Time
	// fails counts consecutive failed probes of this path; at the
	// breaker threshold the entry's expiry is pushed out to the cooldown.
	fails int
}

// serveInner runs the inner handler, converting a panic into a recovered
// flag so one bad request handler can never take the whole server down.
func (m *middleware) serveInner(w http.ResponseWriter, r *http.Request) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			m.opts.Metrics.PanicsRecovered.Add(1)
			panicked = true
		}
	}()
	m.next.ServeHTTP(w, r)
	return false
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == WorkerPath && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		decorate.ServeWorkerScript(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		if m.serveInner(w, r) {
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
		return
	}

	pageURL := requestPageURL(r)
	ts := m.stateFor(r)

	// Deadline budget: the whole instrumented serve — inner handler,
	// probe fan-out, map assembly — happens inside one wall-clock
	// allowance. Stages read the remainder off the context; the fan-out
	// stops issuing probes once it is spent.
	if ts.requestBudget > 0 {
		ctx, cancel := resilience.WithBudget(r.Context(), ts.requestBudget)
		defer cancel()
		r = r.WithContext(ctx)
	}

	// Admission control: only instrumented GET/HEAD traffic is gated —
	// it is the traffic with probe amplification (one page fanning out
	// to N subresource probes), which is what melts a saturated inner
	// handler. A refused request falls down the degradation ladder.
	if ts.gate != nil {
		if err := ts.gate.AcquireSlot(r.Context()); err != nil {
			m.shed(ts, w, r, pageURL, err)
			return
		}
		defer ts.gate.Release()
	}

	// Inner-handler circuit breaker: while open, don't error-proxy —
	// answer from the stale cache, or refuse honestly.
	if ts.breaker != nil && !ts.breaker.Allow() {
		if m.serveStale(ts, w, r, pageURL, "breaker-open") {
			return
		}
		m.serveReject(w, r, "breaker-open")
		return
	}

	// Single inner-handler execution through the sniffing writer: the
	// handler is asked for the full entity (see innerRequest; the writer
	// and the HTML path below re-apply conditionals and HEAD), and the
	// writer streams everything that is not a 200 HTML page. A 5xx is
	// held back when a stale substitute exists, so clients see the last
	// good copy instead of the error. The writer is pooled; nothing it
	// owns survives past the end of this function (see sniffPool).
	sw := newSniffWriter(w, r)
	defer sw.release()
	sw.stales, sw.stalePage = ts.pages, pageURL
	panicked := m.serveInner(sw, innerRequest(r))
	if ts.breaker != nil {
		ts.breaker.Record(!panicked && sw.status < http.StatusInternalServerError)
	}
	if panicked {
		if !sw.sentToDst {
			if m.serveStale(ts, w, r, pageURL, "panic") {
				return
			}
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
		// Once bytes have streamed to the client the response cannot be
		// repaired; net/http closes the connection on the length
		// mismatch, which is exactly what a proxy would do.
		return
	}
	if sw.held {
		// The writer swallowed a 5xx because a stale copy existed when
		// the status committed. Serve it; if it expired in the race,
		// replay the error honestly.
		if m.serveStale(ts, w, r, pageURL, "origin-error") {
			return
		}
		copyHeader(w.Header(), sw.header)
		w.WriteHeader(sw.status)
		return
	}
	if !sw.committed {
		// The handler wrote nothing: commit an empty response, matching
		// net/http's implicit 200.
		sw.WriteHeader(http.StatusOK)
		return
	}
	if !sw.buffering {
		return // already streamed
	}

	// Budget check between stages: the page rendered, but there is no
	// time left to probe subresources and assemble the map. Serve the
	// HTML un-instrumented — late-but-plain beats later-and-decorated,
	// and the client simply falls back to ordinary caching.
	if b, ok := resilience.BudgetFrom(r.Context()); ok && b.Exhausted() {
		m.opts.Metrics.BudgetExhausted.Add(1)
		m.servePlain(w, r, sw)
		return
	}

	// The rendered-page cache keys on (page URL, raw body hash), so the
	// parse → extract → inject → hash pipeline runs once per distinct
	// content; probes stay per-request, so freshness is identical to
	// rebuilding from scratch. The histogram wraps the call rather than
	// deferring a closure — a closure per request is exactly the kind of
	// allocation this path exists to avoid.
	if m.htmlNS == nil {
		m.serveHTML(ts, w, r, sw, pageURL)
		return
	}
	htmlStart := time.Now()
	m.serveHTML(ts, w, r, sw, pageURL)
	m.htmlNS.Observe(time.Since(htmlStart).Nanoseconds())
}

// serveHTML decorates and delivers a buffered 200 HTML entity through the
// shared pipeline: render (via the hot index), early hints, the map, then
// decorate.Respond. On a fully-warm unchanged page — hot index hit, cached
// encoding still valid, no conditionals, no delta — this function acquires
// no mutex and allocates nothing: every header value it writes was
// precomputed when the render or encoding was cached.
func (m *middleware) serveHTML(ts *tenantState, w http.ResponseWriter, r *http.Request, sw *sniffWriter, pageURL string) {
	ctx, span := telemetry.BeginSpan(r.Context(), "middleware")
	defer span.End()
	ent := ts.pages.HotRender(pageURL, sw.body())

	// Early hints go out the moment the reference list exists: the probe
	// fan-out below is the serve's slow stage, and the 103 lets the client
	// start subresource fetches while it runs.
	h := w.Header()
	if m.opts.EarlyHints && decorate.AddPreloadLinks(h, ent.Refs) {
		w.WriteHeader(http.StatusEarlyHints)
		m.opts.Metrics.HintsSent.Add(1)
		telemetry.Event(ctx, "hints", pageURL)
	}

	for k, vs := range sw.header {
		if k == "Content-Length" || k == "Etag" {
			continue
		}
		h[k] = vs
	}
	encoded := m.setMap(ctx, ts, r, h, pageURL, ent)
	telemetry.Event(ctx, "map-built", pageURL)
	if m.opts.ServerTiming {
		telemetry.AppendServerTiming(h, "map-built")
	}
	ts.pages.Respond(ctx, w, r, pageURL, ent, encoded, time.Time{})
}

// setMap puts ent's X-Etag-Config in h and returns it: the encoding cached
// on ent while no probe it depends on has changed or expired, else a
// cluster peer's encoding of the same entity, else a fresh probe fan-out.
func (m *middleware) setMap(ctx context.Context, ts *tenantState, r *http.Request, h http.Header, pageURL string, ent *decorate.Entry) string {
	// Load the generation before resolving: probes that change state
	// during the resolve bump it, which both blocks reuse of a cached
	// encoding and prevents this request from caching one.
	gen := ts.probeGen.Load()
	now := time.Now()
	if hdr, ok := ent.Encoded(gen, now); ok {
		h[HeaderName] = hdr
		m.opts.Metrics.EncodeReuses.Add(1)
		return hdr[0]
	}
	if enc, exp, ok := m.exchangeLookup(ts, pageURL, ent, now); ok {
		// A cluster peer already rendered this exact entity and gossiped
		// its encoded map: adopt it instead of re-probing. The peer's
		// expiry bounds the trust window; the local generation stamp means
		// any local probe outcome still invalidates it immediately.
		h[HeaderName] = ent.SetEncoded(gen, exp, enc)
		m.opts.Metrics.HotMapHits.Add(1)
		telemetry.Event(ctx, "hotmap-adopt", pageURL)
		return enc
	}
	res := &probeResolver{m: m, ts: ts, req: r, ctx: ctx}
	etags := core.ResolveRefsContext(ctx, ent.Refs, res, core.BuildOptions{Concurrency: m.opts.probeConcurrency()})
	if dropped := decorate.CapMapBytes(etags, m.opts.MaxMapBytes); dropped > 0 {
		m.opts.Metrics.MapEntriesDropped.Add(int64(dropped))
	}
	enc := etags.Encode()
	// Never cache an encoding assembled under a cancelled request: a
	// client that disconnected mid-render stopped the probe fan-out, so
	// the map may be a prefix of the real one.
	if ctx.Err() != nil || ts.probeGen.Load() != gen {
		h.Set(HeaderName, enc)
		return enc
	}
	exp := res.minExpires.Load()
	if exp == 0 {
		// No probes ran (a page with no same-origin refs); the empty map
		// is still only trusted for one TTL.
		exp = now.Add(m.opts.ProbeTTL).UnixNano()
	}
	h[HeaderName] = ent.SetEncoded(gen, exp, enc)
	if ex := m.opts.Exchange; ex != nil {
		// Gossip the fresh encoding so peers serving this page skip their
		// own probe fan-out entirely.
		ex.Publish(ts.name, pageURL, ent.TagStr, enc, exp)
	}
	return enc
}

// requestPageURL is the origin-relative URL of the page being served, query
// included — the base both relative references and the render-cache key
// resolve against.
func requestPageURL(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return r.URL.Path + "?" + r.URL.RawQuery
	}
	return r.URL.Path
}

type probeResolver struct {
	m   *middleware
	ts  *tenantState
	req *http.Request
	// ctx carries the request trace probe decisions are recorded on.
	ctx context.Context
	// minExpires tracks the earliest expiry (unix nanoseconds) among the
	// probes this resolve consulted — the moment the assembled map stops
	// being trustworthy without a re-probe. Updated from fan-out workers,
	// hence atomic; 0 means no probe ran.
	minExpires atomic.Int64
}

func (p *probeResolver) observe(pr probe) {
	n := pr.expires.UnixNano()
	for {
		cur := p.minExpires.Load()
		if cur != 0 && cur <= n {
			return
		}
		if p.minExpires.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (p *probeResolver) ETagFor(path string) (etag.Tag, bool) {
	pr := p.m.probe(p.ts, path, p.req, p.ctx)
	p.observe(pr)
	return pr.tag, pr.ok
}

func (p *probeResolver) StylesheetBody(path string) (string, bool) {
	pr := p.m.probe(p.ts, path, p.req, p.ctx)
	p.observe(pr)
	if !pr.ok || !pr.isCSS {
		return "", false
	}
	return pr.cssBody, true
}

// probe returns the cached probe result for path, or GETs path against the
// inner handler. Concurrent probes of the same expired path are collapsed
// by singleflight into one inner-handler call — under a thundering herd of
// page renders each subresource is probed once, not once per render.
// Failed probes trip a per-path circuit breaker: after breakerThreshold
// consecutive failures the path is left alone (and out of the map) for
// BreakerCooldown, so an inner handler erroring on one path is not hammered
// on every page render.
func (m *middleware) probe(ts *tenantState, path string, via *http.Request, ctx context.Context) probe {
	if pr, ok := ts.probes.Get(path); ok && time.Now().Before(pr.expires) {
		return pr
	}
	telemetry.Event(ctx, "probe", path)
	pr, _, _ := ts.probes.Do(path, func() (probe, error) {
		// Re-check inside the flight: the flight we queued behind may
		// have refreshed the entry already.
		prev, had := ts.probes.Peek(path)
		if had && time.Now().Before(prev.expires) {
			return prev, nil
		}

		req, ok := probeRequest(path, via)
		if !ok {
			// Page content chose this path; one that is not a request
			// target stays out of the map instead of reaching the handler.
			m.opts.Metrics.ProbesUnparsable.Add(1)
			telemetry.Event(ctx, "probe-unparsable", path)
			pr := probe{expires: time.Now().Add(m.opts.ProbeTTL)}
			ts.probes.Put(path, pr)
			return pr, nil
		}
		rec := httptest.NewRecorder()
		panicked := m.serveInner(rec, req)

		pr := probe{expires: time.Now().Add(m.opts.ProbeTTL)}
		if !panicked && rec.Code == http.StatusOK {
			if t, ok := etag.Parse(rec.Header().Get("Etag")); ok {
				pr.tag = t
			} else {
				// The inner handler emits no validator; derive one the
				// way the modified Caddy derives tags from file contents.
				pr.tag = etag.ForBytes(rec.Body.Bytes())
			}
			pr.ok = true
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "text/css") {
				pr.isCSS = true
				pr.cssBody = rec.Body.String()
			}
		} else if threshold := m.opts.breakerThreshold(); threshold > 0 {
			if had {
				pr.fails = prev.fails + 1
			} else {
				pr.fails = 1
			}
			if pr.fails >= threshold {
				pr.expires = time.Now().Add(m.opts.BreakerCooldown)
				m.opts.Metrics.BreakerTrips.Add(1)
				telemetry.Event(ctx, "breaker-open", path)
			}
		}
		// An observable change — a tag flip, a path appearing, a path
		// going bad — invalidates every cached map serialization. Bumping
		// after the Put means a request racing this flight can cache an
		// encoding that is stale for at most one flight; the next request
		// sees the new generation and rebuilds, well inside the freshness
		// window ProbeTTL already grants.
		changed := !had || prev.tag != pr.tag || prev.ok != pr.ok
		ts.probes.Put(path, pr)
		if changed {
			ts.probeGen.Add(1)
		}
		return pr, nil
	})
	return pr
}

// probeRequest builds the GET that probes path against the inner handler,
// or reports that path is not a valid request target. It carries the
// serving request's Host and tenant, so a tenant-routing inner handler
// (catalystd's multi-origin proxy) probes the right upstream, but not its
// context: a probe flight is shared by every request waiting on it, so no
// one request's cancellation may cut it short.
func probeRequest(path string, via *http.Request) (*http.Request, bool) {
	u, err := url.ParseRequestURI(path)
	if err != nil {
		return nil, false
	}
	ctx := context.Background()
	if t, ok := tenant.FromContext(via.Context()); ok {
		ctx = tenant.NewContext(ctx, t)
	}
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       http.NoBody,
		Host:       via.Host,
		RemoteAddr: "192.0.2.1:1234", // httptest's documentation address
		RequestURI: path,
	}
	return req.WithContext(ctx), true
}

// innerRequest is the request the inner handler serves for r: a GET for
// the full entity, since a page is decorated from its body and the
// middleware answers conditionals itself (against the rewritten body for
// HTML, via the sniffing writer for everything else). The common
// unconditional GET is passed as-is — handlers must not mutate their
// request, so sharing is safe; anything else is cloned, its conditionals
// stripped and a HEAD turned into a GET.
func innerRequest(r *http.Request) *http.Request {
	if r.Method == http.MethodGet && r.Header["If-None-Match"] == nil && r.Header["If-Modified-Since"] == nil {
		return r
	}
	c := r.Clone(r.Context())
	c.Method = http.MethodGet
	c.Header.Del("If-None-Match")
	c.Header.Del("If-Modified-Since")
	return c
}

var _ http.Handler = (*middleware)(nil)
