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
	// Telemetry is the registry whose full snapshot — every instrument
	// any layer registered — is served under "telemetry" in the
	// MetricsPath JSON. Nil falls back to the server's registry.
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
// server's registry (and, when ServerOptions.AccessLogSize was set, its
// recent requests) while every other request reaches the site. cmd/catalystd
// uses this behind its -metrics flag.
func WithMetrics(srv *server.Server) http.Handler {
	return WithMetricsOptions(srv, MetricsOptions{})
}

// WithMetricsOptions is WithMetrics with a chosen registry, an echoed
// config, and MetricsOptions.PProf to mount the pprof handlers.
func WithMetricsOptions(srv *server.Server, opts MetricsOptions) http.Handler {
	if opts.Telemetry == nil {
		opts.Telemetry = srv.Telemetry()
	}
	return metricsMux(srv, srv.RecentRequests, opts)
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
// of next. recent, when non-nil, supplies the server's access log under
// "recent"; proxy mode passes nil and the payload is registry plus config
// alone.
func metricsMux(next http.Handler, recent func() []server.AccessEntry, opts MetricsOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		payload := struct {
			Recent    []server.AccessEntry `json:"recent,omitempty"`
			Config    any                  `json:"config,omitempty"`
			Telemetry *telemetry.Snapshot  `json:"telemetry,omitempty"`
		}{Config: opts.Config}
		if recent != nil {
			payload.Recent = recent()
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
