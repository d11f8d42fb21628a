package cluster

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecatalyst/internal/etag"
)

func TestRingDistribution(t *testing.T) {
	r := NewRing("a", "b", "c")
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("/page/%d", i))]++
	}
	for _, id := range []string{"a", "b", "c"} {
		share := float64(counts[id]) / keys
		if share < 0.20 || share > 0.47 {
			t.Fatalf("member %s owns %.0f%% of keys — ring badly skewed (%v)", id, share*100, counts)
		}
	}
}

func TestRingStableOwnership(t *testing.T) {
	a := NewRing("a", "b", "c")
	b := NewRing("c", "b", "a") // order must not matter
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("/k%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("construction order changed ownership of %q", k)
		}
	}
}

// TestRingMinimalMovement pins the consistent-hashing guarantee: removing
// one member moves only that member's keys.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing("a", "b", "c")
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("/k%d", i)
		before[k] = r.Owner(k)
	}
	r.Remove("b")
	moved := 0
	for k, prev := range before {
		now := r.Owner(k)
		if now == "b" {
			t.Fatalf("removed member still owns %q", k)
		}
		if prev != "b" && now != prev {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner", moved)
	}
}

func TestRingOwnerN(t *testing.T) {
	r := NewRing("a", "b", "c")
	owners := r.OwnerN("/page", 3)
	if len(owners) != 3 {
		t.Fatalf("OwnerN(3) = %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner in %v", owners)
		}
		seen[o] = true
	}
	if owners[0] != r.Owner("/page") {
		t.Fatal("OwnerN[0] differs from Owner")
	}
	if got := r.OwnerN("/page", 5); len(got) != 3 {
		t.Fatalf("OwnerN(5) on 3 members = %v", got)
	}
	empty := NewRing()
	if empty.Owner("/x") != "" {
		t.Fatal("empty ring returned an owner")
	}
}

func validEnc(t *testing.T) string {
	t.Helper()
	tag := etag.ForBytes([]byte("body"))
	return `{"/app.css":` + quoted(tag.String()) + `}`
}

func quoted(s string) string {
	var b bytes.Buffer
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(s, `"`, `\"`))
	b.WriteByte('"')
	return b.String()
}

func TestExchangeRoundTrip(t *testing.T) {
	// Receiver side: a bare exchange with no peers.
	recv := NewExchange(ExchangeOptions{Instance: "b"})
	defer recv.Close()
	srv := httptest.NewServer(recv.Handler())
	defer srv.Close()

	// Sender side gossips to the receiver.
	send := NewExchange(ExchangeOptions{Instance: "a", Peers: []string{srv.URL}})
	defer send.Close()

	enc := validEnc(t)
	exp := time.Now().Add(5 * time.Second).UnixNano()
	send.Publish("shop", "/index.html", "W/\"abc\"", enc, exp)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, gotExp, ok := recv.Lookup("shop", "/index.html", "W/\"abc\""); ok {
			if got != enc || gotExp != exp {
				t.Fatalf("Lookup = (%q, %d), want (%q, %d)", got, gotExp, enc, exp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("announcement never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A different validator must miss: the binding is entity-exact.
	if _, _, ok := recv.Lookup("shop", "/index.html", "W/\"other\""); ok {
		t.Fatal("Lookup matched a different validator")
	}
	// A different tenant must miss even for the same page.
	if _, _, ok := recv.Lookup("blog", "/index.html", "W/\"abc\""); ok {
		t.Fatal("Lookup crossed tenants")
	}
}

func TestExchangeRejects(t *testing.T) {
	e := NewExchange(ExchangeOptions{Instance: "x"})
	defer e.Close()
	h := e.Handler()
	futureNs := time.Now().Add(time.Minute).UnixNano()

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"not json", "{", 400},
		{"missing fields", `{"tenant":"t"}`, 400},
		{"bad encoding", fmt.Sprintf(`{"tenant":"t","page":"/","tag":"x","enc":"not a map","expires":%d}`, futureNs), 400},
		{"expired", `{"tenant":"t","page":"/","tag":"x","enc":"{}","expires":1}`, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", HotMapPath, strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.wantCode {
				t.Fatalf("code = %d, want %d", rec.Code, c.wantCode)
			}
		})
	}
	if got := e.opts.Telemetry.Counter("cluster.rejected").Load(); got != int64(len(cases)) {
		t.Fatalf("Rejected = %d, want %d", got, len(cases))
	}
	if e.local.Len() != 0 {
		t.Fatal("a rejected announcement was stored")
	}
}

// TestExchangeTTLCap pins that a sender's extravagant expiry is clamped to
// the receiver's MaxTTL.
func TestExchangeTTLCap(t *testing.T) {
	e := NewExchange(ExchangeOptions{Instance: "x", MaxTTL: 50 * time.Millisecond})
	defer e.Close()
	body := fmt.Sprintf(`{"tenant":"t","page":"/","tag":"v","enc":"{}","expires":%d}`,
		time.Now().Add(time.Hour).UnixNano())
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", HotMapPath, strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("announcement refused: %d %s", rec.Code, rec.Body.String())
	}
	if _, exp, ok := e.Lookup("t", "/", "v"); !ok {
		t.Fatal("announcement not stored")
	} else if until := time.Until(time.Unix(0, exp)); until > 60*time.Millisecond {
		t.Fatalf("expiry %v out, beyond the 50ms MaxTTL", until)
	}
	time.Sleep(60 * time.Millisecond)
	if _, _, ok := e.Lookup("t", "/", "v"); ok {
		t.Fatal("expired announcement still served")
	}
}
