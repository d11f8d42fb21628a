package server

import (
	"bytes"
	"strings"
	"testing"

	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/vclock"
)

func TestEarlyHintsEmitsPreloadLinks(t *testing.T) {
	s := New(buildSite(), Options{EarlyHints: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	rec := get(t, s, "/index.html", nil)
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	links := rec.Header().Values("Link")
	if len(links) == 0 {
		t.Fatal("no Link preload headers emitted")
	}
	want := map[string]bool{"/a.css": false, "/b.js": false, "/d.jpg": false}
	for _, l := range links {
		if !strings.Contains(l, "rel=preload") {
			t.Fatalf("Link %q missing rel=preload", l)
		}
		for k := range want {
			if strings.Contains(l, "<"+k+">") {
				want[k] = true
			}
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no preload hint for %s in %v", k, links)
		}
	}
	if s.Telemetry().Counter("server.hints_sent").Load() != 1 {
		t.Errorf("HintsSent = %d, want 1", s.Telemetry().Counter("server.hints_sent").Load())
	}
	// Non-HTML responses carry no hints.
	if got := get(t, s, "/a.css", nil).Header().Values("Link"); len(got) != 0 {
		t.Errorf("stylesheet response carried Link headers: %v", got)
	}
}

func TestEarlyHintsOn304(t *testing.T) {
	s := New(buildSite(), Options{EarlyHints: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	tag := get(t, s, "/index.html", nil).Header().Get("Etag")
	rec := get(t, s, "/index.html", map[string]string{"If-None-Match": tag})
	if rec.Code != 304 {
		t.Fatalf("status = %d, want 304", rec.Code)
	}
	// Hints are set before the conditional check: even a 304 advertises
	// the preload set, letting the client warm subresources.
	if len(rec.Header().Values("Link")) == 0 {
		t.Error("304 carried no Link preload headers")
	}
}

// deltaServer returns a catalyst+delta server over a mutable MemContent,
// so tests can change a page body between requests (new validator per
// version).
func deltaServer(t *testing.T) (*Server, *MemContent) {
	t.Helper()
	c := buildSite()
	s := New(c, Options{Catalyst: true, Delta: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	return s, c
}

func TestDeltaServesPatch(t *testing.T) {
	s, c := deltaServer(t)

	first := get(t, s, "/index.html", nil)
	if first.Code != 200 || first.Header().Get(delta.FromHeader) != "" {
		t.Fatalf("first visit: code=%d from=%q", first.Code, first.Header().Get(delta.FromHeader))
	}
	baseTag := first.Header().Get("Etag")
	baseBody := append([]byte(nil), first.Body.Bytes()...)

	// The page changes slightly (dynamic HTML churn).
	c.SetBody("/index.html", `<html><head><link rel="stylesheet" href="/a.css"><script src="/b.js"></script></head><body><p>updated headline</p><img src="/d.jpg"></body></html>`, CachePolicy{NoCache: true})

	rec := get(t, s, "/index.html", map[string]string{delta.RequestHeader: baseTag})
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	from := rec.Header().Get(delta.FromHeader)
	if from != baseTag {
		t.Fatalf("%s = %q, want %q", delta.FromHeader, from, baseTag)
	}
	newTag := rec.Header().Get("Etag")
	if newTag == baseTag {
		t.Fatal("Etag unchanged after content change")
	}

	// The patch applies against the base to exactly the new body.
	patched, err := delta.Apply(baseBody, rec.Body.Bytes())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	full := get(t, s, "/index.html", nil)
	if full.Header().Get(delta.FromHeader) != "" {
		t.Fatal("request without X-Delta-Base got a patch")
	}
	if !bytes.Equal(patched, full.Body.Bytes()) {
		t.Fatal("patched body differs from full body")
	}
	if s.Telemetry().Counter("server.deltas_served").Load() != 1 || s.Telemetry().Counter("server.delta_bytes_saved").Load() <= 0 {
		t.Fatalf("metrics = served %d, saved %d", s.Telemetry().Counter("server.deltas_served").Load(), s.Telemetry().Counter("server.delta_bytes_saved").Load())
	}
}

func TestDeltaFallsBackOnUnknownBase(t *testing.T) {
	s, _ := deltaServer(t)
	rec := get(t, s, "/index.html", map[string]string{delta.RequestHeader: `"unknown-tag"`})
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(delta.FromHeader) != "" {
		t.Fatal("served a patch against an unknown base")
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("<html>")) {
		t.Fatal("fallback did not serve the full body")
	}
}

func TestDeltaPrefers304OverPatch(t *testing.T) {
	s, _ := deltaServer(t)
	first := get(t, s, "/index.html", nil)
	tag := first.Header().Get("Etag")
	rec := get(t, s, "/index.html", map[string]string{
		"If-None-Match":     tag,
		delta.RequestHeader: tag,
	})
	if rec.Code != 304 {
		t.Fatalf("status = %d, want 304 when the validator still matches", rec.Code)
	}
	if s.Telemetry().Counter("server.deltas_served").Load() != 0 {
		t.Fatal("diff computed on the 304 path")
	}
}

func TestDeltaDisabledWithoutOption(t *testing.T) {
	c := buildSite()
	s := New(c, Options{Catalyst: true, Clock: vclock.NewVirtual(vclock.Epoch)})
	first := get(t, s, "/index.html", nil)
	baseTag := first.Header().Get("Etag")
	c.SetBody("/index.html", `<html><body>changed</body></html>`, CachePolicy{NoCache: true})
	rec := get(t, s, "/index.html", map[string]string{delta.RequestHeader: baseTag})
	if rec.Header().Get(delta.FromHeader) != "" {
		t.Fatal("delta served with Options.Delta off")
	}
}
