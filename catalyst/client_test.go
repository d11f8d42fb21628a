package catalyst

import (
	"net/http/httptest"
	"testing"
	"testing/fstest"

	"cachecatalyst/internal/server"
)

// clientWorld serves a small catalyst-enabled site over real sockets and
// returns its base URL plus the underlying server for metrics.
func clientWorld(t *testing.T) (string, *server.Server, func()) {
	t.Helper()
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<link rel="stylesheet" href="/s.css"><img src="/logo.png">`)},
		"s.css":      {Data: []byte("body{}")},
		"logo.png":   {Data: []byte("PNG-V1")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return ts.URL, srv, ts.Close
}

func TestClientFirstVisitFetchesAndCaches(t *testing.T) {
	base, _, done := clientWorld(t)
	defer done()
	c := NewClient(nil)

	page, err := c.Get(base + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if page.Source != "network" || page.StatusCode != 200 {
		t.Fatalf("page: %s %d", page.Source, page.StatusCode)
	}
	css, err := c.Get(base + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if css.Source != "network" || string(css.Body) != "body{}" {
		t.Fatalf("css: %+v", css)
	}
	if _, err := c.Get(base + "/logo.png"); err != nil {
		t.Fatal(err)
	}
	st := c.Telemetry().Snapshot().Counters
	if st["client.network_fetches"] != 3 || st["client.local_hits"] != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientRevisitServesFromCache(t *testing.T) {
	base, srv, done := clientWorld(t)
	defer done()
	c := NewClient(nil)
	mustGet := func(p string) *ClientResponse {
		t.Helper()
		r, err := c.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustGet("/index.html")
	mustGet("/s.css")
	mustGet("/logo.png")
	before := srv.Telemetry().Counter("server.requests").Load()

	// Revisit: the page revalidates (304 carries a fresh map)...
	page := mustGet("/index.html")
	if page.Source != "revalidated" {
		t.Fatalf("page revisit source = %s", page.Source)
	}
	// ...and the subresources come from cache with zero requests.
	css := mustGet("/s.css")
	logo := mustGet("/logo.png")
	if css.Source != "cache" || logo.Source != "cache" {
		t.Fatalf("subresources: %s, %s", css.Source, logo.Source)
	}
	if string(css.Body) != "body{}" || string(logo.Body) != "PNG-V1" {
		t.Fatal("cached bodies wrong")
	}
	if got := srv.Telemetry().Counter("server.requests").Load() - before; got != 1 {
		t.Fatalf("server saw %d requests on revisit, want 1", got)
	}
	if st := c.Telemetry().Snapshot().Counters; st["client.local_hits"] != 2 || st["client.revalidations"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientFetchesChangedResource(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html": {Data: []byte(`<img src="/logo.png">`)},
		"logo.png":   {Data: []byte("PNG-V1")},
	}
	srv, err := NewServer(fsys, ServerOptions{Policy: DefaultPolicy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(nil)
	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ts.URL + "/logo.png"); err != nil {
		t.Fatal(err)
	}

	// Change the image on disk and reload the server content.
	fsys["logo.png"] = &fstest.MapFile{Data: []byte("PNG-V2-CHANGED")}
	reloadable, ok := srv.Content().(*server.FSContent)
	if !ok {
		t.Fatal("content not reloadable")
	}
	if err := reloadable.Reload(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	logo, err := c.Get(ts.URL + "/logo.png")
	if err != nil {
		t.Fatal(err)
	}
	if logo.Source == "cache" {
		t.Fatal("stale logo served from cache after change")
	}
	if string(logo.Body) != "PNG-V2-CHANGED" {
		t.Fatalf("body = %q", logo.Body)
	}
	// And the *next* revisit serves the new version locally.
	if _, err := c.Get(ts.URL + "/index.html"); err != nil {
		t.Fatal(err)
	}
	logo2, _ := c.Get(ts.URL + "/logo.png")
	if logo2.Source != "cache" || string(logo2.Body) != "PNG-V2-CHANGED" {
		t.Fatalf("re-cache failed: %s %q", logo2.Source, logo2.Body)
	}
}

func TestClientAgainstPlainServer(t *testing.T) {
	// A server without CacheCatalyst: the client degrades to conditional
	// requests, never serving stale.
	content := server.NewMemContent()
	content.SetBody("/x.txt", "hello", server.CachePolicy{NoCache: true})
	ts := httptest.NewServer(server.New(content, server.Options{}))
	defer ts.Close()

	c := NewClient(nil)
	first, err := c.Get(ts.URL + "/x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != "network" {
		t.Fatalf("source = %s", first.Source)
	}
	second, err := c.Get(ts.URL + "/x.txt")
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "revalidated" || string(second.Body) != "hello" {
		t.Fatalf("second: %s %q", second.Source, second.Body)
	}
}

func TestClientRejectsRelativeURL(t *testing.T) {
	c := NewClient(nil)
	if _, err := c.Get("/relative"); err == nil {
		t.Fatal("relative URL accepted")
	}
	if _, err := c.Get("://bad"); err == nil {
		t.Fatal("malformed URL accepted")
	}
}

func TestClientClear(t *testing.T) {
	base, _, done := clientWorld(t)
	defer done()
	c := NewClient(nil)
	if _, err := c.Get(base + "/index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(base + "/s.css"); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	css, err := c.Get(base + "/s.css")
	if err != nil {
		t.Fatal(err)
	}
	if css.Source != "network" {
		t.Fatalf("cleared client served from %s", css.Source)
	}
}
