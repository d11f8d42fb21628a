package catalyst

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
)

// MetricsPath is the conventional path WithMetrics serves the snapshot at.
const MetricsPath = "/debug/catalystd"

// MetricsOptions configures WithMetricsOptions.
type MetricsOptions struct {
	// Telemetry adds the registry's full snapshot — every instrument any
	// layer registered — under "telemetry" in the MetricsPath JSON. Nil
	// falls back to the registry the server was constructed with, if any.
	Telemetry *telemetry.Registry
	// PProf additionally mounts the standard net/http/pprof handlers
	// under /debug/pprof/. Off by default: profiling endpoints on a
	// production port are opt-in.
	PProf bool
	// Config, when set, is echoed verbatim under "config" in the
	// MetricsPath JSON — the daemon's effective settings (cache policy,
	// budgets), so a scrape shows which knobs produced the counters
	// next to them.
	Config any
}

// WithMetrics wraps srv so that MetricsPath serves a JSON snapshot of the
// server's counters (and, when ServerOptions.AccessLogSize was set, its
// recent requests) while every other request reaches the site. cmd/catalystd
// uses this behind its -metrics flag.
func WithMetrics(srv *server.Server) http.Handler {
	return WithMetricsOptions(srv, MetricsOptions{})
}

// WithMetricsOptions is WithMetrics with the full telemetry surface: the
// MetricsPath JSON gains a "telemetry" field holding the registry snapshot,
// and MetricsOptions.PProf mounts the pprof handlers.
func WithMetricsOptions(srv *server.Server, opts MetricsOptions) http.Handler {
	if opts.Telemetry == nil {
		opts.Telemetry = srv.Telemetry()
	}
	return metricsMux(srv, srv.Snapshot, opts)
}

// WithMetricsHandler is WithMetricsOptions for deployments with no
// *server.Server behind the middleware — catalystd's proxy modes, where
// the inner handler is a reverse proxy. The MetricsPath JSON carries the
// registry snapshot and the echoed config, and PProf mounts the same
// pprof surface, so a proxy-mode daemon is observable exactly like a
// file-serving one.
func WithMetricsHandler(next http.Handler, opts MetricsOptions) http.Handler {
	return metricsMux(next, nil, opts)
}

// metricsMux mounts the MetricsPath JSON (and optionally pprof) in front
// of next. snapshot, when non-nil, supplies the server counters that
// anchor the payload; proxy mode passes nil and the payload is registry
// plus config alone.
func metricsMux(next http.Handler, snapshot func() server.MetricsSnapshot, opts MetricsOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		payload := struct {
			*server.MetricsSnapshot `json:",omitzero"`
			Config                  any                 `json:"config,omitempty"`
			Telemetry               *telemetry.Snapshot `json:"telemetry,omitempty"`
		}{Config: opts.Config}
		if snapshot != nil {
			snap := snapshot()
			payload.MetricsSnapshot = &snap
		}
		if opts.Telemetry != nil {
			snap := opts.Telemetry.Snapshot()
			payload.Telemetry = &snap
		}
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if opts.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", next)
	return mux
}

// MiddlewareMetrics exposes the middleware's resilience counters. Pass a
// pointer in MiddlewareOptions.Metrics to observe a wrapped handler; all
// fields are atomic telemetry counters, safe to read while serving, and a
// registry passed in MiddlewareOptions.Telemetry indexes this same storage.
type MiddlewareMetrics struct {
	// PanicsRecovered counts inner-handler panics converted to 500s.
	PanicsRecovered telemetry.Counter
	// BreakerTrips counts per-path probe circuit breakers opening after
	// repeated probe failures.
	BreakerTrips telemetry.Counter
	// ProbesSwept counts probe-cache entries evicted (least recently
	// used first) to respect MiddlewareOptions.MaxProbeEntries.
	ProbesSwept telemetry.Counter
	// ProbesUnparsable counts subresource paths left out of a map
	// because they are not a valid request target to probe.
	ProbesUnparsable telemetry.Counter
	// MapEntriesDropped counts X-Etag-Config entries removed to respect
	// MiddlewareOptions.MaxMapBytes.
	MapEntriesDropped telemetry.Counter
	// RendersEvicted counts rendered-page cache entries evicted to
	// respect MiddlewareOptions.MaxRenderBytes.
	RendersEvicted telemetry.Counter
	// EncodeReuses counts HTML responses that reused a cached
	// X-Etag-Config serialization because no probe outcome changed since
	// it was built (see middleware.probeGen).
	EncodeReuses telemetry.Counter
	// LadderStale counts responses served from the stale cache (with a
	// Warning 110 header) because full service was refused — admission
	// shed, open origin breaker, inner-handler 5xx, or panic.
	LadderStale telemetry.Counter
	// LadderPassthrough counts shed requests served by running the inner
	// handler un-instrumented: no probing, no map, no snippet.
	LadderPassthrough telemetry.Counter
	// LadderRejected counts requests answered 503 + Retry-After, the
	// degradation ladder's bottom rung.
	LadderRejected telemetry.Counter
	// BudgetExhausted counts HTML responses delivered un-decorated
	// because the request's deadline budget ran out before map assembly.
	BudgetExhausted telemetry.Counter
	// HintsSent counts 103 Early Hints responses emitted ahead of HTML
	// (MiddlewareOptions.EarlyHints).
	HintsSent telemetry.Counter
	// DeltasServed counts HTML responses answered with a CCD1 patch
	// against the client's named base instead of the full body;
	// DeltaBytesSaved accumulates body bytes avoided that way.
	DeltasServed    telemetry.Counter
	DeltaBytesSaved telemetry.Counter
	// HotMapHits counts HTML responses whose X-Etag-Config was adopted
	// from a cluster peer's published encoding (MiddlewareOptions.Exchange)
	// instead of being assembled by a local probe fan-out.
	HotMapHits telemetry.Counter
}

// RegisterTelemetry indexes the counters in reg under "middleware.*"; the
// registry reads the same storage Snapshot() does.
func (m *MiddlewareMetrics) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterCounter("middleware.panics_recovered", &m.PanicsRecovered)
	reg.RegisterCounter("middleware.breaker_trips", &m.BreakerTrips)
	reg.RegisterCounter("middleware.probes_swept", &m.ProbesSwept)
	reg.RegisterCounter("middleware.probes_unparsable", &m.ProbesUnparsable)
	reg.RegisterCounter("middleware.map_entries_dropped", &m.MapEntriesDropped)
	reg.RegisterCounter("middleware.renders_evicted", &m.RendersEvicted)
	reg.RegisterCounter("middleware.encode_reuses", &m.EncodeReuses)
	reg.RegisterCounter("middleware.ladder_stale", &m.LadderStale)
	reg.RegisterCounter("middleware.ladder_passthrough", &m.LadderPassthrough)
	reg.RegisterCounter("middleware.ladder_rejected", &m.LadderRejected)
	reg.RegisterCounter("middleware.budget_exhausted", &m.BudgetExhausted)
	reg.RegisterCounter("middleware.hints_sent", &m.HintsSent)
	reg.RegisterCounter("middleware.deltas_served", &m.DeltasServed)
	reg.RegisterCounter("middleware.delta_bytes_saved", &m.DeltaBytesSaved)
	reg.RegisterCounter("middleware.hotmap_hits", &m.HotMapHits)
}

// MiddlewareMetricsSnapshot is the JSON form of MiddlewareMetrics.
type MiddlewareMetricsSnapshot struct {
	PanicsRecovered   int64 `json:"panicsRecovered"`
	BreakerTrips      int64 `json:"breakerTrips"`
	ProbesSwept       int64 `json:"probesSwept"`
	ProbesUnparsable  int64 `json:"probesUnparsable"`
	MapEntriesDropped int64 `json:"mapEntriesDropped"`
	RendersEvicted    int64 `json:"rendersEvicted"`
	EncodeReuses      int64 `json:"encodeReuses"`
	LadderStale       int64 `json:"ladderStale"`
	LadderPassthrough int64 `json:"ladderPassthrough"`
	LadderRejected    int64 `json:"ladderRejected"`
	BudgetExhausted   int64 `json:"budgetExhausted"`
	HintsSent         int64 `json:"hintsSent"`
	DeltasServed      int64 `json:"deltasServed"`
	DeltaBytesSaved   int64 `json:"deltaBytesSaved"`
	HotMapHits        int64 `json:"hotMapHits"`
}

// Snapshot returns the counters as plain values.
func (m *MiddlewareMetrics) Snapshot() MiddlewareMetricsSnapshot {
	return MiddlewareMetricsSnapshot{
		PanicsRecovered:   m.PanicsRecovered.Load(),
		BreakerTrips:      m.BreakerTrips.Load(),
		ProbesSwept:       m.ProbesSwept.Load(),
		ProbesUnparsable:  m.ProbesUnparsable.Load(),
		MapEntriesDropped: m.MapEntriesDropped.Load(),
		RendersEvicted:    m.RendersEvicted.Load(),
		EncodeReuses:      m.EncodeReuses.Load(),
		LadderStale:       m.LadderStale.Load(),
		LadderPassthrough: m.LadderPassthrough.Load(),
		LadderRejected:    m.LadderRejected.Load(),
		BudgetExhausted:   m.BudgetExhausted.Load(),
		HintsSent:         m.HintsSent.Load(),
		DeltasServed:      m.DeltasServed.Load(),
		DeltaBytesSaved:   m.DeltaBytesSaved.Load(),
		HotMapHits:        m.HotMapHits.Load(),
	}
}

// ClientMetricsHandler serves c's counters — including the resilience
// counters (retries, timeouts, stale serves) — as JSON, for mounting at a
// debug path next to WithMetrics.
func ClientMetricsHandler(c *Client) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		if err := json.NewEncoder(w).Encode(c.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
