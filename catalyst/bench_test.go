package catalyst

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// discardWriter is the cheapest possible ResponseWriter, so the benchmarks
// measure middleware overhead rather than recorder bookkeeping.
type discardWriter struct {
	h http.Header
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) Flush()                      {}

func staticAsset(size int) http.Handler {
	body := []byte(strings.Repeat("0123456789abcdef", size/16))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	})
}

// recorderMiddleware reimplements the pre-cachestore write path — record the
// full response, and for non-HTML replay the inner handler into a second
// recorder and copy that out — as the comparison baseline for the streaming
// benchmarks. It executes the inner handler twice and buffers the body
// twice, which is exactly what the sniffing writer removed.
func recorderMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		stripped := r.Clone(r.Context())
		stripped.Header.Del("If-None-Match")
		stripped.Header.Del("If-Modified-Since")
		next.ServeHTTP(rec, stripped)
		if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "text/html") {
			return // HTML rewriting is not what these benchmarks measure
		}
		rec2 := httptest.NewRecorder()
		next.ServeHTTP(rec2, r)
		for k, vs := range rec2.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec2.Code)
		_, _ = io.Copy(w, rec2.Body)
	})
}

func benchStatic(b *testing.B, h http.Handler, size int) {
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("GET", "/blob", nil)
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, req)
		}
	})
}

// BenchmarkMiddlewareStatic compares the streaming sniffWriter hot path
// against the old record-then-replay scheme on a 64 KiB static asset. The
// acceptance bar for the refactor is ≥2× ops/sec for Streaming over
// Recorder.
func BenchmarkMiddlewareStatic(b *testing.B) {
	const size = 64 << 10
	b.Run("Streaming", func(b *testing.B) {
		benchStatic(b, Middleware(staticAsset(size), MiddlewareOptions{}), size)
	})
	b.Run("Recorder", func(b *testing.B) {
		benchStatic(b, recorderMiddleware(staticAsset(size)), size)
	})
}

// BenchmarkMiddlewareHTML measures the buffered map-building path, which
// both schemes share; it bounds the regression risk of the rewrite on the
// HTML side.
func BenchmarkMiddlewareHTML(b *testing.B) {
	h := Middleware(innerSite(), MiddlewareOptions{ProbeTTL: time.Hour})
	// Warm the probe cache once so the benchmark measures the steady state.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	})
}

// BenchmarkProbeContention renders one page from many goroutines with a
// probe TTL so short every render wants a re-probe: the singleflight layer
// determines how many inner-handler probes actually run.
func BenchmarkProbeContention(b *testing.B) {
	h := Middleware(innerSite(), MiddlewareOptions{ProbeTTL: 100 * time.Microsecond})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	})
}

// site50 is an inner handler serving one HTML page with ~50 same-origin
// subresources (a handful of stylesheets that each pull in a background
// image, the rest plain assets) — the cold-page shape from the paper's
// motivating example. Non-HTML responses sleep for delay, standing in for
// the inner handler's real per-request cost.
func site50(delay time.Duration) http.Handler {
	var page strings.Builder
	page.WriteString("<html><head>")
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&page, `<link rel="stylesheet" href="/s%d.css">`, i)
	}
	page.WriteString("</head><body>")
	for i := 0; i < 45; i++ {
		fmt.Fprintf(&page, `<img src="/img/i%02d.png">`, i)
	}
	page.WriteString("</body></html>")
	html := page.String()

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = io.WriteString(w, html)
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if strings.HasSuffix(r.URL.Path, ".css") {
			w.Header().Set("Content-Type", "text/css")
			fmt.Fprintf(w, ".x { background: url(/bg%s.png) }", r.URL.Path[2:3])
			return
		}
		w.Header().Set("Content-Type", "image/png")
		_, _ = io.WriteString(w, r.URL.Path)
	})
}

// BenchmarkMiddlewareHTML50 measures the steady state the render cache
// exists for: a hot, unchanged ~50-subresource page whose probes are all
// fresh. RenderCache is the shipping configuration; NoRenderCache disables
// the cache (MaxRenderBytes < 0), paying tokenizer + injection + body hash +
// map serialization per request. The tentpole acceptance bar is ≥3×
// ops/sec for RenchmarkCache over NoRenderCache.
func BenchmarkMiddlewareHTML50(b *testing.B) {
	bench := func(b *testing.B, opts MiddlewareOptions) {
		opts.ProbeTTL = time.Hour
		h := Middleware(site50(0), opts)
		// Two warm-up renders: the first fills the probe cache (bumping the
		// probe generation as entries land), the second caches the map
		// encoding against the now-stable generation.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
			}
		})
	}
	b.Run("RenderCache", func(b *testing.B) { bench(b, MiddlewareOptions{}) })
	b.Run("NoRenderCache", func(b *testing.B) { bench(b, MiddlewareOptions{MaxRenderBytes: -1}) })
	// Gated is RenderCache plus admission control at catalystd's default
	// capacity — the overload PR's acceptance bar is the gate costing <3%
	// on this hot path.
	b.Run("Gated", func(b *testing.B) { bench(b, MiddlewareOptions{MaxInflight: 256}) })
}

// BenchmarkMiddlewareWarmHit isolates the middleware's own warm-hit cost:
// request and writer are reused across iterations, so — unlike HTML50,
// whose figures include ~2.4µs of httptest request construction per op —
// what remains is the serve itself. The tentpole bar is ≤1 alloc/op here:
// a fully-warm unchanged page runs the hot-index memcmp, reuses the cached
// encoding, writes precomputed headers, and acquires no mutex (see
// TestWarmGetTakesNoMutex in internal/cachestore for the store-level proof).
func BenchmarkMiddlewareWarmHit(b *testing.B) {
	h := Middleware(site50(0), MiddlewareOptions{ProbeTTL: time.Hour})
	// Warm: first request fills probe + render caches, second pins the
	// encoding against the stable probe generation.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	req := httptest.NewRequest("GET", "/", nil)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkMiddlewareHTMLCold measures the first render of a ~50-subresource
// page when every probe must actually run against an inner handler that
// costs ~100µs per request — the cold-page latency the resolve fan-out
// attacks. Each iteration uses a fresh middleware so nothing is cached;
// Parallel uses the default fan-out, Sequential pins ProbeConcurrency to 1
// (the pre-fan-out behaviour, roughly sum(probe) vs max(probe)).
func BenchmarkMiddlewareHTMLCold(b *testing.B) {
	const probeCost = 100 * time.Microsecond
	bench := func(b *testing.B, concurrency int) {
		inner := site50(probeCost)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := Middleware(inner, MiddlewareOptions{ProbeTTL: time.Hour, ProbeConcurrency: concurrency})
			h.ServeHTTP(&discardWriter{h: make(http.Header)}, httptest.NewRequest("GET", "/", nil))
		}
	}
	b.Run("Parallel", func(b *testing.B) { bench(b, 0) })
	b.Run("Sequential", func(b *testing.B) { bench(b, 1) })
}
