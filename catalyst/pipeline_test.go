package catalyst

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// TestPipelineEntriesAgree holds the two entries into the decoration
// pipeline to one behaviour: a catalyst-mode server decorating its own
// Content, and the middleware decorating a plain server over the same
// Content through its probe cache. For every URL of a seeded site — pages,
// stylesheets, scripts, images — plus a 404 and the worker script, a GET,
// a HEAD and a GET revalidating the first GET's validator get the same
// status, Etag, X-Etag-Config and body from both, compared as a client
// reads them over a real socket.
func TestPipelineEntriesAgree(t *testing.T) {
	site := webgen.GenerateOne(webgen.Params{Seed: 7, Scale: 0.3}, 0, vclock.NewVirtual(vclock.Epoch))
	content := site.Content()
	origin := httptest.NewServer(server.New(content, server.Options{Catalyst: true}))
	defer origin.Close()
	mw := httptest.NewServer(Middleware(server.New(content, server.Options{}), MiddlewareOptions{ProbeTTL: time.Hour}))
	defer mw.Close()

	paths := content.(interface{ Paths() []string }).Paths()
	paths = append(paths, "/no-such-page.html", core.ServiceWorkerPath)
	var html int
	for _, p := range paths {
		if res, ok := content.Get(p); ok && server.IsHTML(res.ContentType) {
			html++
		}
	}
	if html == 0 || len(paths) < 10 {
		t.Fatalf("site too small to compare: %d paths, %d pages", len(paths), html)
	}

	type response struct {
		code int
		hdr  http.Header
		body string
	}
	serve := func(srv *httptest.Server, method, p, inm string) response {
		req, err := http.NewRequest(method, srv.URL+p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return response{resp.StatusCode, resp.Header, string(body)}
	}
	for _, p := range paths {
		first := serve(origin, http.MethodGet, p, "").hdr.Get("Etag")
		for _, c := range []struct{ method, inm string }{
			{http.MethodGet, ""},
			{http.MethodHead, ""},
			{http.MethodGet, first},
		} {
			want := serve(origin, c.method, p, c.inm)
			got := serve(mw, c.method, p, c.inm)
			if got.code != want.code {
				t.Errorf("%s %s (If-None-Match %q): status %d, server says %d", c.method, p, c.inm, got.code, want.code)
				continue
			}
			for _, k := range []string{"Etag", HeaderName} {
				if got.hdr.Get(k) != want.hdr.Get(k) {
					t.Errorf("%s %s (If-None-Match %q): %s = %q, server says %q",
						c.method, p, c.inm, k, got.hdr.Get(k), want.hdr.Get(k))
				}
			}
			if got.body != want.body {
				t.Errorf("%s %s (If-None-Match %q): bodies differ (%d vs %d bytes)",
					c.method, p, c.inm, len(got.body), len(want.body))
			}
		}
	}
}
