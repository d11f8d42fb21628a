package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry_names.golden")

// registryFiles is the site every mode serves: a page, its stylesheet.
var registryFiles = map[string]string{
	"/index.html": `<html><head><link rel="stylesheet" href="/app.css"></head><body>hi</body></html>`,
	"/app.css":    "body{}",
}

// fileOrigin serves registryFiles with ETags and 304s, the upstream of the
// proxy modes.
func fileOrigin(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := registryFiles[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		tag := fmt.Sprintf(`"%x"`, len(body))
		w.Header().Set("Etag", tag)
		if strings.HasSuffix(r.URL.Path, ".css") {
			w.Header().Set("Content-Type", "text/css")
		} else {
			w.Header().Set("Content-Type", "text/html")
		}
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// driveRegistry sends the fixed request set — HTML GET, conditional GET,
// static file, 404, worker script — and returns the registry's names.
func driveRegistry(t *testing.T, opts daemonOptions, host string) []string {
	t.Helper()
	reg := telemetry.NewRegistry()
	built, err := buildHandler(opts, reg)
	if err != nil {
		t.Fatal(err)
	}
	if built.OnDrain != nil {
		defer built.OnDrain()
	}
	page := get(built.Handler, host, "/index.html")
	if page.Code != http.StatusOK {
		t.Fatalf("GET /index.html: %d", page.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "http://"+host+"/index.html", nil)
	req.Header.Set("If-None-Match", page.Header().Get("Etag"))
	cond := httptest.NewRecorder()
	built.Handler.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified {
		t.Fatalf("conditional GET /index.html: %d", cond.Code)
	}
	for path, want := range map[string]int{
		"/app.css":             http.StatusOK,
		"/missing.html":        http.StatusNotFound,
		core.ServiceWorkerPath: http.StatusOK,
	} {
		if rec := get(built.Handler, host, path); rec.Code != want {
			t.Fatalf("GET %s: %d, want %d", path, rec.Code, want)
		}
	}
	return reg.Names()
}

// TestRegistryNamesGolden pins every instrument name each daemon mode
// registers after serving the fixed request set. Operators and the
// benchmark driver read counters by these names, so a refactor of how
// counters are declared must leave the file byte-identical. Run with
// -update to rewrite it after a deliberate rename.
func TestRegistryNamesGolden(t *testing.T) {
	dir := t.TempDir()
	for name, body := range registryFiles {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	up := fileOrigin(t)
	peer := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	t.Cleanup(peer.Close)
	cfgPath := filepath.Join(t.TempDir(), "catalystd.json")
	cfg := fmt.Sprintf(`{
		"tenants": [
			{"name": "alpha", "upstream": %q, "hosts": ["alpha.test"]},
			{"name": "beta", "upstream": %q, "hosts": ["beta.test"]}
		],
		"cluster": {"instance": "n0", "peers": [%q]}
	}`, up.URL, up.URL, peer.URL)
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	for _, mode := range []struct {
		name string
		mod  func(*daemonOptions)
	}{
		{"dir", func(o *daemonOptions) { o.Dir = dir }},
		{"proxy", func(o *daemonOptions) { o.Origin = up.URL }},
		{"config", func(o *daemonOptions) { o.ConfigPath = cfgPath }},
	} {
		opts := testOpts()
		opts.Metrics = true
		opts.AccessLogSize = 16
		mode.mod(&opts)
		fmt.Fprintf(&out, "# %s\n", mode.name)
		for _, n := range driveRegistry(t, opts, "alpha.test") {
			fmt.Fprintln(&out, n)
		}
	}

	golden := filepath.Join("testdata", "registry_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("registry names differ from %s:\ngot:\n%s", golden, out.String())
	}
}
