package decorate

import (
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// TestCapMapBytesMatchesNaive cross-checks the incremental encoded-size
// trimming against the obvious re-encode-per-drop reference over a large
// map with escape-heavy and multi-byte paths.
func TestCapMapBytesMatchesNaive(t *testing.T) {
	build := func() core.ETagMap {
		m := core.ETagMap{}
		for i := 0; i < 400; i++ {
			m[fmt.Sprintf("/assets/deep/dir-%03d/file-%03d.js", i%37, i)] = etag.ForBytes([]byte{byte(i), byte(i >> 8)})
		}
		m[`/odd/"quoted".css`] = etag.ForBytes([]byte("q"))
		m["/odd/ünïcode-päth.png"] = etag.ForBytes([]byte("u"))
		m["/odd/back\\slash.js"] = etag.ForBytes([]byte("b"))
		m["/odd/<html>&ctl\b.js"] = etag.ForBytes([]byte("h"))
		return m
	}

	naive := func(m core.ETagMap, max int) core.ETagMap {
		for len(m.Encode()) > max {
			paths := make([]string, 0, len(m))
			for p := range m {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			delete(m, paths[len(paths)-1])
		}
		return m
	}

	full := len(build().Encode())
	for _, max := range []int{full, full - 1, full / 2, 512, 64, 10} {
		got := build()
		dropped := CapMapBytes(got, max)
		want := naive(build(), max)
		if len(got) != len(want) || dropped != len(build())-len(want) {
			t.Fatalf("max=%d: incremental kept %d entries (dropped %d), naive kept %d", max, len(got), dropped, len(want))
		}
		for p, tag := range want {
			if got[p] != tag {
				t.Fatalf("max=%d: maps diverge at %q", max, p)
			}
		}
		if enc := got.Encode(); len(enc) > max && len(got) > 0 {
			t.Fatalf("max=%d: trimmed map still encodes to %d bytes", max, len(enc))
		}
	}
}

// TestTenantNamespaces: a tenant's view registers its own instruments and
// owns its bytes, and a negative StaleFor keeps no stale copies.
func TestTenantNamespaces(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Name: "edge", HotIndex: true, StaleFor: time.Minute, Delta: true, Telemetry: reg})
	alpha := s.Tenant(&tenant.Tenant{Name: "alpha", BudgetBytes: 1 << 20})
	alpha.HotRender("/", []byte("<html>alpha</html>"))
	if s.Renders().Len() != 0 || alpha.Renders().Len() != 1 {
		t.Fatal("tenant render landed in the default namespace")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"tenant.alpha.renders.puts", "tenant.alpha.hot.puts"} {
		if snap.Counters[name] != 1 {
			t.Errorf("%s = %d, want 1", name, snap.Counters[name])
		}
	}
	if beta := s.Tenant(&tenant.Tenant{Name: "beta", StaleFor: -1}); beta.stales != nil {
		t.Fatal("StaleFor < 0 still keeps stale copies")
	}
}

// TestPreloadLinksCapped: one Link per ref up to the cap, stylesheets as
// "style", everything else as "image".
func TestPreloadLinksCapped(t *testing.T) {
	h := http.Header{}
	if AddPreloadLinks(h, nil) || len(h) != 0 {
		t.Fatal("no refs still produced hints")
	}
	refs := []core.Ref{{Key: "/a.css", CSS: true}}
	for i := 0; i < 2*maxPreloadHints; i++ {
		refs = append(refs, core.Ref{Key: fmt.Sprintf("/i%d.png", i)})
	}
	if !AddPreloadLinks(h, refs) {
		t.Fatal("refs produced no hints")
	}
	links := h.Values("Link")
	if len(links) != maxPreloadHints || links[0] != "</a.css>; rel=preload; as=style" || links[1] != "</i0.png>; rel=preload; as=image" {
		t.Fatalf("links = %d, first %q", len(links), links[:2])
	}
}
