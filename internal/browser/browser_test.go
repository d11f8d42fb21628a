package browser

import (
	nethttp "net/http"
	"testing"
	"time"

	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/httpcache"
	"cachecatalyst/internal/netsim"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
)

// figure1Site builds the example page of Figure 1: index.html links a.css
// (max-age one week) and b.js (no-cache); evaluating b.js fetches c.js
// (max-age one week), which fetches d.jpg (max-age one hour).
func figure1Site() *server.MemContent {
	c := server.NewMemContent()
	week := server.CachePolicy{MaxAge: 7 * 24 * time.Hour, HasMaxAge: true}
	c.SetBody("/index.html",
		`<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body>hello</body></html>`,
		server.CachePolicy{NoCache: true})
	c.SetBody("/a.css", `body { color: red; }`, week)
	c.SetBody("/b.js", "//@fetch /c.js\nrun();", server.CachePolicy{NoCache: true})
	c.SetBody("/c.js", "//@fetch /d.jpg\nmore();", week)
	c.SetBody("/d.jpg", "JPEG-V1-DATA", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	return c
}

func cond40ms() netsim.Conditions {
	return netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}
}

type world struct {
	clock   *vclock.Virtual
	content *server.MemContent
	srv     *server.Server
	origins OriginMap
}

func newWorld(catalyst bool) *world {
	// Catalyst worlds enable recording so JS-discovered resources (c.js,
	// d.jpg) are covered on revisits — the full Figure 1c configuration.
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{Catalyst: catalyst, Record: catalyst, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	return w
}

// newStaticWorld is a catalyst server without recording: only statically
// discoverable resources are covered by the map.
func newStaticWorld() *world {
	w := &world{clock: vclock.NewVirtual(vclock.Epoch), content: figure1Site()}
	w.srv = server.New(w.content, server.Options{Catalyst: true, Clock: w.clock})
	w.origins = OriginMap{"site.example": server.NewOrigin(w.srv)}
	return w
}

func mustLoad(t *testing.T, b *Browser, w *world) LoadResult {
	t.Helper()
	res, err := b.Load(w.origins, cond40ms(), "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestColdLoadFetchesEverything(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Resources != 5 {
		t.Fatalf("resources = %d, want 5", res.Resources)
	}
	if res.NetworkRequests != 5 || res.LocalHits != 0 {
		t.Fatalf("cold load: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
	if res.PLT <= 0 {
		t.Fatal("PLT not positive")
	}
}

func TestColdLoadDependencyChainTiming(t *testing.T) {
	// The JS chain forces ≥ 4 sequential round trips: index → b.js →
	// c.js → d.jpg, plus the connection handshake.
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if minPLT := 5 * 40 * time.Millisecond; res.PLT < minPLT {
		t.Fatalf("PLT %v < dependency-chain lower bound %v", res.PLT, minPLT)
	}
}

func TestConventionalRevisitUsesFreshAndRevalidatesStale(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	mustLoad(t, b, w)

	w.clock.Advance(2 * time.Hour) // a.css, c.js still fresh; d.jpg expired
	res := mustLoad(t, b, w)
	// Network: index.html (no-cache → 304), b.js (no-cache → 304),
	// d.jpg (expired, unchanged → 304). Local: a.css, c.js.
	if res.LocalHits != 2 {
		t.Fatalf("local hits = %d, want 2 (%+v)", res.LocalHits, res)
	}
	if res.NetworkRequests != 3 {
		t.Fatalf("network requests = %d, want 3 (%+v)", res.NetworkRequests, res)
	}
	if res.Validations304 != 3 {
		t.Fatalf("304s = %d, want 3 (%+v)", res.Validations304, res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
}

func TestConventionalRevisitFetchesChangedResource(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	mustLoad(t, b, w)

	w.clock.Advance(2 * time.Hour)
	w.content.SetBody("/d.jpg", "JPEG-V2-DATA-NEW", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	res := mustLoad(t, b, w)
	if res.Validations200 != 1 {
		t.Fatalf("validation 200s = %d (%+v)", res.Validations200, res)
	}
	// The new body must now be cached.
	e, ok := b.Cache().Peek("site.example/d.jpg")
	if !ok || string(e.Response.Body) != "JPEG-V2-DATA-NEW" {
		t.Fatal("changed resource not updated in cache")
	}
}

func TestCatalystFirstVisitRegistersAndWarms(t *testing.T) {
	w := newWorld(true)
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
	worker, ok := b.Workers().Lookup("site.example")
	if !ok {
		t.Fatal("service worker not registered on first visit")
	}
	// All four subresources stored in the SW cache.
	if worker.Cache().Len() != 4 {
		t.Fatalf("SW cache has %d entries, want 4", worker.Cache().Len())
	}
	if worker.Stats().MapUpdates != 1 {
		t.Fatalf("map updates = %d", worker.Stats().MapUpdates)
	}
}

func TestCatalystRevisitUnchangedIsOneRequest(t *testing.T) {
	w := newWorld(true)
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w)

	w.clock.Advance(2 * time.Hour)
	res := mustLoad(t, b, w)
	// The paper's optimal scenario (Figure 1c): one navigation request,
	// everything else with zero round trips — even d.jpg whose TTL expired.
	if res.NetworkRequests != 1 {
		t.Fatalf("network requests = %d, want 1 (%+v)", res.NetworkRequests, res)
	}
	if res.LocalHits != 4 {
		t.Fatalf("local hits = %d, want 4 (%+v)", res.LocalHits, res)
	}
	// The single network exchange is the navigation itself (a conditional
	// request whose 304 carries the refreshed ETag map); no subresource
	// revalidations happen.
	if res.Validations304 > 1 {
		t.Fatalf("catalyst issued subresource revalidations: %+v", res)
	}
}

func TestCatalystRevisitFetchesOnlyChanged(t *testing.T) {
	w := newWorld(true)
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w)

	w.clock.Advance(2 * time.Hour)
	w.content.SetBody("/d.jpg", "JPEG-V2-DATA-NEW", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	res := mustLoad(t, b, w)
	if res.NetworkRequests != 2 { // navigation + d.jpg
		t.Fatalf("network requests = %d, want 2 (%+v)", res.NetworkRequests, res)
	}
	if res.LocalHits != 3 {
		t.Fatalf("local hits = %d, want 3 (%+v)", res.LocalHits, res)
	}
	// Safety: the SW must now hold the new version.
	worker, _ := b.Workers().Lookup("site.example")
	stored, ok := worker.Cache().Match("/d.jpg")
	if !ok || string(stored.Body) != "JPEG-V2-DATA-NEW" {
		t.Fatal("SW cache not updated with changed resource")
	}
}

func TestCatalystStaticCoverageGap(t *testing.T) {
	// Without recording, the server's static extraction cannot cover the
	// JS-discovered chain (c.js, d.jpg): the paper's preliminary
	// implementation pays network round trips for those on every revisit.
	w := newStaticWorld()
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, b, w)
	w.clock.Advance(2 * time.Hour)
	res := mustLoad(t, b, w)
	// nav (304 via HTTP cache) + d.jpg (expired, not in map → 304).
	// c.js is uncovered too but its week-long max-age keeps it fresh in
	// the HTTP cache the SW fetch() flows through.
	if res.NetworkRequests != 2 {
		t.Fatalf("network requests = %d, want 2 (%+v)", res.NetworkRequests, res)
	}
	if res.LocalHits != 3 { // a.css + b.js via SW, c.js via HTTP cache
		t.Fatalf("local hits = %d, want 3 (%+v)", res.LocalHits, res)
	}
	if res.Validations304 != 2 { // nav + d.jpg
		t.Fatalf("304s = %d, want 2 (%+v)", res.Validations304, res)
	}
}

func TestCatalystFasterThanConventionalOnRevisit(t *testing.T) {
	wConv := newWorld(false)
	conv := New(wConv.clock, Conventional, netsim.TransportOptions{})
	mustLoad(t, conv, wConv)
	wConv.clock.Advance(2 * time.Hour)
	convRes := mustLoad(t, conv, wConv)

	wCat := newWorld(true)
	cat := New(wCat.clock, Catalyst, netsim.TransportOptions{})
	mustLoad(t, cat, wCat)
	wCat.clock.Advance(2 * time.Hour)
	catRes := mustLoad(t, cat, wCat)

	if catRes.PLT >= convRes.PLT {
		t.Fatalf("catalyst PLT %v not better than conventional %v", catRes.PLT, convRes.PLT)
	}
	// The b.js → c.js → d.jpg chain costs the conventional client extra
	// round trips (b.js revalidation gates discovery). Catalyst needs only
	// the navigation: PLT ≈ handshake + nav exchange.
	if catRes.PLT > 150*time.Millisecond {
		t.Fatalf("catalyst revisit PLT %v unexpectedly slow", catRes.PLT)
	}
}

func TestCatalystAgainstPlainServerDegradesGracefully(t *testing.T) {
	// A catalyst browser visiting a server without the mechanism must
	// still load correctly (no SW registered, all fetches via network).
	w := newWorld(false) // catalyst disabled on server
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 0 || res.Resources != 5 {
		t.Fatalf("load against plain server: %+v", res)
	}
	if _, ok := b.Workers().Lookup("site.example"); ok {
		t.Fatal("worker registered without injection snippet")
	}
	// Revisit also works, behaving exactly like a conventional browser:
	// fresh entries (a.css, c.js, d.jpg) served locally, no-cache entries
	// (page, b.js) revalidated.
	res2 := mustLoad(t, b, w)
	if res2.Errors != 0 || res2.NetworkRequests != 2 || res2.LocalHits != 3 {
		t.Fatalf("revisit against plain server: %+v", res2)
	}
}

func TestClearStateIsColdCache(t *testing.T) {
	w := newWorld(true)
	b := New(w.clock, Catalyst, netsim.TransportOptions{})
	first := mustLoad(t, b, w)
	b.ClearState()
	again := mustLoad(t, b, w)
	if again.NetworkRequests != first.NetworkRequests {
		t.Fatalf("cleared browser did not reload cold: %+v vs %+v", again, first)
	}
}

func TestUnknownOriginIsError(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	if _, err := b.Load(w.origins, cond40ms(), "ghost.example", "/"); err == nil {
		t.Fatal("expected error for unknown origin")
	}
}

func TestCrossOriginResourceFetchedFromSecondOrigin(t *testing.T) {
	w := newWorld(false)
	w.content.SetBody("/index.html",
		`<html><head></head><body><img src="https://cdn.example/logo.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	cdnContent := server.NewMemContent()
	cdnContent.SetBody("/logo.png", "CDN-PNG", server.CachePolicy{MaxAge: time.Hour, HasMaxAge: true})
	cdnSrv := server.New(cdnContent, server.Options{Clock: w.clock})
	w.origins["cdn.example"] = server.NewOrigin(cdnSrv)

	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 0 || res.Resources != 2 {
		t.Fatalf("cross-origin load: %+v", res)
	}
	if cdnSrv.Telemetry().Counter("server.requests").Load() != 1 {
		t.Fatal("CDN origin not contacted")
	}
}

func TestMissingCrossOriginCountsError(t *testing.T) {
	w := newWorld(false)
	w.content.SetBody("/index.html",
		`<html><body><img src="https://gone.example/x.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 1 {
		t.Fatalf("expected 1 error: %+v", res)
	}
}

func TestDuplicateReferencesCoalesced(t *testing.T) {
	w := newWorld(false)
	w.content.SetBody("/index.html",
		`<html><body><img src="/d.jpg"><img src="/d.jpg"><img src="/d.jpg"></body></html>`,
		server.CachePolicy{NoCache: true})
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.NetworkRequests != 2 { // page + one d.jpg
		t.Fatalf("duplicates not coalesced: %+v", res)
	}
}

func TestNotFoundSubresourceCountsError(t *testing.T) {
	w := newWorld(false)
	w.content.SetBody("/index.html",
		`<html><body><img src="/missing.png"></body></html>`,
		server.CachePolicy{NoCache: true})
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	res := mustLoad(t, b, w)
	if res.Errors != 1 {
		t.Fatalf("expected 1 error: %+v", res)
	}
}

func TestHigherLatencySlowsLoad(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	fast, err := b.Load(w.origins, netsim.Conditions{RTT: 10 * time.Millisecond, DownlinkBps: 60e6}, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	b.ClearState()
	slow, err := b.Load(w.origins, netsim.Conditions{RTT: 160 * time.Millisecond, DownlinkBps: 60e6}, "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if slow.PLT <= fast.PLT {
		t.Fatalf("PLT(160ms)=%v not slower than PLT(10ms)=%v", slow.PLT, fast.PLT)
	}
}

func TestLowerBandwidthSlowsLoad(t *testing.T) {
	w := newWorld(false)
	b := New(w.clock, Conventional, netsim.TransportOptions{})
	fast, _ := b.Load(w.origins, netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 60e6}, "site.example", "/index.html")
	b.ClearState()
	slow, _ := b.Load(w.origins, netsim.Conditions{RTT: 40 * time.Millisecond, DownlinkBps: 1e6}, "site.example", "/index.html")
	if slow.PLT <= fast.PLT {
		t.Fatalf("PLT(1Mbps)=%v not slower than PLT(60Mbps)=%v", slow.PLT, fast.PLT)
	}
}

// lmOrigin serves a page plus one subresource that carries Last-Modified
// but no ETag, so revalidation must use If-Modified-Since.
type lmOrigin struct {
	requests []string
	imsSeen  []string
}

func (o *lmOrigin) RoundTrip(req *netsim.Request) *httpcache.Response {
	o.requests = append(o.requests, req.Path)
	h := make(nethttp.Header)
	h.Set("Date", headers.FormatHTTPDate(vclock.Epoch))
	switch req.Path {
	case "/index.html":
		h.Set("Content-Type", "text/html")
		h.Set("Cache-Control", "no-cache")
		h.Set("Etag", `"page-v1"`)
		if req.Header.Get("If-None-Match") == `"page-v1"` {
			return &httpcache.Response{StatusCode: 304, Header: h}
		}
		return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte(`<img src="/old.png">`)}
	case "/old.png":
		h.Set("Content-Type", "image/png")
		h.Set("Cache-Control", "no-cache")
		h.Set("Last-Modified", "Mon, 01 Jan 2024 00:00:00 GMT")
		if ims := req.Header.Get("If-Modified-Since"); ims != "" {
			o.imsSeen = append(o.imsSeen, ims)
			return &httpcache.Response{StatusCode: 304, Header: h}
		}
		return &httpcache.Response{StatusCode: 200, Header: h, Body: []byte("PNG")}
	}
	return &httpcache.Response{StatusCode: 404, Header: h}
}

func TestConventionalIMSFallback(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	origin := &lmOrigin{}
	origins := OriginMap{"site.example": origin}
	b := New(clock, Conventional, netsim.TransportOptions{})
	if _, err := b.Load(origins, cond40ms(), "site.example", "/index.html"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	res, err := b.Load(origins, cond40ms(), "site.example", "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(origin.imsSeen) != 1 {
		t.Fatalf("IMS validations = %d, want 1 (%v)", len(origin.imsSeen), origin.requests)
	}
	if origin.imsSeen[0] != "Mon, 01 Jan 2024 00:00:00 GMT" {
		t.Fatalf("IMS value = %q", origin.imsSeen[0])
	}
	if res.Validations304 != 2 { // page (INM) + image (IMS)
		t.Fatalf("304s = %d (%+v)", res.Validations304, res)
	}
	// The 304-refreshed image still has its body available.
	e, ok := b.Cache().Peek("site.example/old.png")
	if !ok || string(e.Response.Body) != "PNG" {
		t.Fatal("IMS-refreshed entry lost its body")
	}
}

func TestModeString(t *testing.T) {
	if Conventional.String() != "conventional" || Catalyst.String() != "catalyst" {
		t.Fatal("mode strings wrong")
	}
}
