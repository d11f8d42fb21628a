package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// clockHeader carries a visit's scheduled virtual time (nanoseconds after
// the corpus epoch) on its page request. The upstream's clock is the
// largest value seen, so content changes follow the visit schedule rather
// than the wall clock.
const clockHeader = "X-Bench-Clock"

// statsPath answers the upstream's request count. The benchmark asks the
// upstream directly, not through the edge.
const statsPath = "/__perfbench/stats"

// upstream is revisit-churn's origin: several webgen sites, one plain
// server.Server per Host, over one virtual clock.
type upstream struct {
	clock    *vclock.Virtual
	sites    map[string]http.Handler
	contents map[string]server.Content // untraced, by host
	requests atomic.Int64
}

// lockedContent serializes access to a webgen.Site, which is not safe for
// concurrent use.
type lockedContent struct {
	mu    *sync.Mutex
	inner server.Content
}

func (c lockedContent) Get(p string) (*server.Resource, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Get(p)
}

func (c lockedContent) Paths() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Paths()
}

// newUpstream builds the origin for seed. tr, when non-nil, records spans
// around each site's Server.ServeHTTP and Content.Get.
func newUpstream(seed int64, tr *tracer) *upstream {
	u := &upstream{clock: vclock.NewVirtual(vclock.Epoch), sites: map[string]http.Handler{}, contents: map[string]server.Content{}}
	params := churnParams(seed)
	for i := 0; i < params.Sites; i++ {
		site := webgen.GenerateOne(params, i, u.clock)
		var content server.Content = lockedContent{mu: new(sync.Mutex), inner: site.Content()}
		u.contents[site.Host] = content
		if tr != nil {
			content = tracedContent{tr: tr, inner: content}
		}
		var h http.Handler = server.New(content, server.Options{})
		if tr != nil {
			h = tr.handler(layerServer, h)
		}
		u.sites[site.Host] = h
	}
	return u
}

func (u *upstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if v := r.Header.Get(clockHeader); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
			u.clock.Set(vclock.Epoch.Add(time.Duration(ns)))
		}
	}
	if r.URL.Path == statsPath {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int64{"requests": u.requests.Load()})
		return
	}
	u.requests.Add(1)
	host, _, err := net.SplitHostPort(r.Host)
	if err != nil {
		host = r.Host
	}
	h, ok := u.sites[strings.ToLower(host)]
	if !ok {
		http.NotFound(w, r)
		return
	}
	h.ServeHTTP(w, r)
}

// upstreamMain runs the origin as its own process:
//
//	perfbench upstream -seed N -addr 127.0.0.1:PORT
func upstreamMain(args []string) error {
	fs := flag.NewFlagSet("upstream", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newUpstream(*seed, nil), ReadHeaderTimeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		srv.Close()
	}()
	fmt.Printf("upstream: %d sites on %s\n", churnSites, ln.Addr())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}
