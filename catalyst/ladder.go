package catalyst

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/telemetry"
)

// This file is the middleware's degradation ladder: what a request gets
// when full service — inner handler plus probe fan-out plus map assembly —
// is not affordable. The rungs, in order of preference:
//
//  1. Stale: the last successfully rendered copy of the page, served with
//     Warning 110 and its last-known X-Etag-Config. Costs no inner-handler
//     work at all.
//  2. Passthrough: the inner handler runs once but the response streams
//     un-instrumented — no probing, no map, no snippet. Sheds the probe
//     amplification (one HTML request fanning out to N subresource
//     probes), which is the part that melts a saturated server.
//  3. Reject: 503 with Retry-After. The honest answer when neither a
//     stale copy nor an un-instrumented pass is affordable.
//
// Every degraded response is accounted on exactly one rung counter, which
// is what lets the chaos suite assert "no client-visible 5xx while a
// stale copy exists" and "every shed request lands on one rung".

// serveStale answers the request from the stale cache, if an unexpired
// entry exists: 200 (or 304 on a matching validator) with a Warning 110
// header, the stored body, and the last-known map. Reports whether it
// served; reason lands on the request trace.
func (m *middleware) serveStale(ts *tenantState, w http.ResponseWriter, r *http.Request, pageURL, reason string) bool {
	e, ok := ts.pages.Stale(pageURL)
	if !ok {
		return false
	}
	m.opts.Metrics.LadderStale.Add(1)
	telemetry.Event(r.Context(), "stale-serve", reason)
	h := w.Header()
	if e.CType != "" {
		h.Set("Content-Type", e.CType)
	}
	if e.Enc != "" {
		h.Set(HeaderName, e.Enc)
	}
	h.Set("Etag", e.Tag.String())
	h.Set("Warning", `110 - "Response is Stale"`)
	h.Set("Age", strconv.FormatInt(int64(time.Since(e.At)/time.Second), 10))
	if m.opts.ServerTiming {
		telemetry.AppendServerTiming(h, "stale-serve")
	}
	if !etag.NoneMatch(r.Header.Get("If-None-Match"), e.Tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	h.Set("Content-Length", strconv.Itoa(len(e.Body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(e.Body)
	}
	return true
}

// servePassthrough runs the inner handler once with the original request
// — conditionals intact, no sniffing, no probing, no instrumentation —
// the ladder's middle rung.
func (m *middleware) servePassthrough(w http.ResponseWriter, r *http.Request, reason string) {
	m.opts.Metrics.LadderPassthrough.Add(1)
	telemetry.Event(r.Context(), "passthrough", reason)
	if m.opts.ServerTiming {
		telemetry.AppendServerTiming(w.Header(), "passthrough")
	}
	if m.serveInner(w, r) {
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// servePlain delivers an already-buffered HTML entity un-instrumented:
// the raw body, no snippet, no map, no probing. Used when the request's
// deadline budget ran out after the inner handler finished but before
// the probe fan-out could start — late-but-plain beats later-and-decorated.
func (m *middleware) servePlain(w http.ResponseWriter, r *http.Request, sw *sniffWriter) {
	telemetry.Event(r.Context(), "budget-exhausted", requestPageURL(r))
	h := w.Header()
	copyHeader(h, sw.header)
	if m.opts.ServerTiming {
		telemetry.AppendServerTiming(h, "budget-exhausted")
	}
	body := sw.body()
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(body)
	}
}

// serveReject answers 503 + Retry-After, the ladder's bottom rung.
func (m *middleware) serveReject(w http.ResponseWriter, r *http.Request, reason string) {
	m.opts.Metrics.LadderRejected.Add(1)
	telemetry.Event(r.Context(), "shed", reason)
	h := w.Header()
	h.Set("Retry-After", strconv.FormatInt(retryAfterSeconds(m.opts.retryAfter()), 10))
	h.Set("Cache-Control", "no-store")
	http.Error(w, "overloaded, retry shortly", http.StatusServiceUnavailable)
}

// retryAfterSeconds renders a Retry-After duration in whole seconds, at
// least 1 — a zero would tell clients to hammer an overloaded server.
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// shed routes a gate-refused request down the ladder. A timed-out queue
// wait means the server is busy but moving: an un-instrumented pass is
// still affordable. A full queue means saturation: only pre-computed
// answers (stale) or a refusal are.
func (m *middleware) shed(ts *tenantState, w http.ResponseWriter, r *http.Request, pageURL string, err error) {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		if m.serveStale(ts, w, r, pageURL, "shed") {
			return
		}
	}
	if errors.Is(err, resilience.ErrQueueTimeout) {
		m.servePassthrough(w, r, "shed")
		return
	}
	m.serveReject(w, r, "queue-full")
}
