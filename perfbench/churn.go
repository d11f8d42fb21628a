package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// probeTTL is catalyst.Middleware's default ProbeTTL, which catalystd
// keeps: a map entry may be that much older than the page it ships with.
// It is the declared staleness bound the revisit-churn check allows.
const probeTTL = time.Second

// churnTenantBudget is each tenant's cacheBudget: below the rendered pages
// of its twelve sites (about 24 pages of 20-60 KB, plus their reference
// lists), so the render and hot caches evict.
const churnTenantBudget = 512 << 10

// churnClientBytes bounds each user's Client cache.
const churnClientBytes = 24 << 20

// churnVisitWorkers is how many open-loop visits may be in flight; the
// connection cap, not this, bounds the load on the edge.
const churnVisitWorkers = 32

// churnWarmVisits run before measuring, unmeasured but checked, so the
// measured visits are mostly warm revisits (the case the paper targets)
// rather than every run's identical cold start.
const churnWarmVisits = 12 * churnUsers

// ctxKey values ride a visit's request context to the edge transport.
type ctxKey int

const (
	clockKey ctxKey = iota // time.Duration: the visit's virtual time
	reqIDKey               // int64: the traced request id
)

// edgeTransport sends every site's requests to the one edge address,
// keeping the site in the Host header, so the benchmark's connection cap
// applies across all sites.
type edgeTransport struct {
	addr string
	base http.RoundTripper
}

func (t edgeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r2 := r.Clone(r.Context())
	r2.Host = r.URL.Host
	r2.URL.Host = t.addr
	if vt, ok := r.Context().Value(clockKey).(time.Duration); ok {
		r2.Header.Set(clockHeader, strconv.FormatInt(int64(vt), 10))
	}
	if id, ok := r.Context().Value(reqIDKey).(int64); ok {
		r2.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r2)
}

// churnCorpus is the benchmark's own copy of the seeded sites: the visit
// lists and, after the run, the versions the check accepts.
type churnCorpus struct {
	clock *setClock
	sites []*webgen.Site
	// subs[site][page] lists every same-origin subresource a visit
	// fetches: the page's references and, recursively, its stylesheets'.
	subs [][2][]string
	hash string
}

// setClock is a clock the verifier can move anywhere.
type setClock struct{ t time.Time }

func (c *setClock) Now() time.Time { return c.t }

var churnPages = [2]string{webgen.PagePath, webgen.SecondaryPagePath}

func pageIndex(p string) int {
	if p == webgen.SecondaryPagePath {
		return 1
	}
	return 0
}

func newChurnCorpus(seed int64) *churnCorpus {
	c := &churnCorpus{clock: &setClock{t: vclock.Epoch}}
	params := churnParams(seed)
	h := newHash()
	for i := 0; i < params.Sites; i++ {
		site := webgen.GenerateOne(params, i, c.clock)
		c.sites = append(c.sites, site)
		content := site.Content()
		for _, p := range content.Paths() {
			res, _ := content.Get(p)
			h.add(site.Host+p, res.Body)
		}
		var subs [2][]string
		for pi, page := range churnPages {
			res, _ := content.Get(page)
			subs[pi] = sameOriginRefs(content, page, res.Body)
		}
		c.subs = append(c.subs, subs)
	}
	c.hash = h.sum()
	return c
}

// sameOriginRefs lists a page's same-origin subresources in document
// order, stylesheet references after the stylesheet that names them.
func sameOriginRefs(content server.Content, page string, body []byte) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(refs []core.Ref)
	walk = func(refs []core.Ref) {
		for _, r := range refs {
			if r.Cross || seen[r.Key] {
				continue
			}
			res, ok := content.Get(r.Key)
			if !ok {
				continue
			}
			seen[r.Key] = true
			out = append(out, r.Key)
			if server.IsCSS(res.ContentType) {
				walk(core.ExtractCSSRefs(r.Key, string(res.Body)))
			}
		}
	}
	walk(core.ExtractPageRefs(page, string(body)))
	return out
}

// version returns the version of site's resource at path at virtual time
// vt, read from the body stamp webgen writes.
func (c *churnCorpus) version(site int, path string, vt time.Duration) int64 {
	c.clock.t = vclock.Epoch.Add(vt)
	res, ok := c.sites[site].Content().Get(path)
	if !ok {
		return -1
	}
	return bodyVersion(res.Body)
}

// bodyVersion parses the " v=N" stamp webgen puts near the start of every
// body, or -1.
func bodyVersion(body []byte) int64 {
	head := body[:min(len(body), 256)]
	i := bytes.Index(head, []byte(" v="))
	if i < 0 {
		return -1
	}
	j := i + 3
	for j < len(head) && head[j] >= '0' && head[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(head[i+3:j]), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// use is one body a Client handed to a visit, kept for the check.
type use struct {
	site      int
	path      string
	ver       int64
	html      bool
	stale     bool          // served stale with a Warning, a declared staleness
	vt        time.Duration // the visit's virtual time
	pageStart int64         // when the visit's page request was sent (ns since run start)
	used      int64         // when the Get returned
}

// clockEvent is a virtual time the benchmark sent (or saw answered) at a wall
// time, from which the check bounds the upstream's clock.
type clockEvent struct {
	wall int64
	vt   time.Duration
}

type churnUser struct {
	mu      sync.Mutex
	client  *catalyst.Client
	seen    map[string]int64 // URL -> last version this user saw
	visited map[int]bool
}

type churnRun struct {
	chk    *checker
	corpus *churnCorpus
	sched  []visit
	t0     time.Time
	users  []*churnUser
	// recording is 1 in the open-loop phase, 2 in the closed loop, 0 in
	// set-up.
	recording atomic.Int32

	mu                sync.Mutex
	sent, recv        []clockEvent
	uses              []use
	edgeLat           []sample // open loop, per Get that reached the edge
	sources           map[string]int64
	visits, edgeGets  int64 // measured phases
	revisits, changed int64
	closedEdge        atomic.Int64
}

func (r *churnRun) now() int64 { return int64(time.Since(r.t0)) }

func newChurnUsers(rt http.RoundTripper) []*churnUser {
	users := make([]*churnUser, churnUsers)
	for i := range users {
		users[i] = &churnUser{
			client: catalyst.NewClientWithOptions(&http.Client{Transport: rt},
				catalyst.ClientOptions{Timeout: 10 * time.Second, MaxCacheBytes: churnClientBytes}),
			seen:    map[string]int64{},
			visited: map[int]bool{},
		}
	}
	return users
}

// vtOf is the virtual time of the i-th visit; the schedule wraps but the
// clock keeps advancing.
func vtOf(i int) time.Duration { return time.Duration(i+1) * churnStep }

// visit runs the i-th scheduled visit: the page, then every same-origin
// subresource, each through the user's Client.
func (r *churnRun) visit(ctx context.Context, i int) error {
	v := r.sched[i%len(r.sched)]
	vt := vtOf(i)
	u := r.users[v.User]
	u.mu.Lock()
	defer u.mu.Unlock()
	host := churnHost(v.Site)
	rec := r.recording.Load()

	pageStart := r.now()
	r.mu.Lock()
	r.sent = append(r.sent, clockEvent{pageStart, vt})
	r.mu.Unlock()
	resp, err := r.get(ctx, u, "http://"+host+v.Page, vt, rec)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.recv = append(r.recv, clockEvent{r.now(), vt})
	r.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return r.chk.fail("%s%s: status %d", host, v.Page, resp.StatusCode)
	}
	if got, want := resp.Header.Get("Etag"), etag.ForBytes(resp.Body).String(); got != want {
		return r.chk.fail("%s%s: ETag %s does not match the body (%s)", host, v.Page, got, want)
	}
	uses := []use{{site: v.Site, path: v.Page, ver: bodyVersion(resp.Body), html: true, vt: vt,
		stale: resp.Header.Get("Warning") != "", pageStart: pageStart, used: r.now()}}

	changed := false
	for _, p := range r.corpus.subs[v.Site][pageIndex(v.Page)] {
		url := "http://" + host + p
		resp, err := r.get(ctx, u, url, -1, rec)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return r.chk.fail("%s%s: status %d", host, p, resp.StatusCode)
		}
		ver := bodyVersion(resp.Body)
		if got, want := resp.Header.Get("Etag"), etag.ForVersion(host+p, uint64(ver)).String(); ver < 0 || got != want {
			return r.chk.fail("%s%s: ETag %s does not match the body's version %d (%s)", host, p, got, ver, want)
		}
		uses = append(uses, use{site: v.Site, path: p, ver: ver, pageStart: pageStart, used: r.now()})
		if prev, ok := u.seen[url]; ok && prev != ver {
			changed = true
		}
		u.seen[url] = ver
	}
	revisit := u.visited[v.Site]
	u.visited[v.Site] = true

	r.mu.Lock()
	r.uses = append(r.uses, uses...)
	if rec != 0 {
		r.visits++
		if revisit {
			r.revisits++
			if changed {
				r.changed++
			}
		}
	}
	r.mu.Unlock()
	return nil
}

// get is one Client Get. vt >= 0 marks the page request, which carries the
// visit's virtual time to the upstream.
func (r *churnRun) get(ctx context.Context, u *churnUser, url string, vt time.Duration, rec int32) (*catalyst.ClientResponse, error) {
	if vt >= 0 {
		ctx = context.WithValue(ctx, clockKey, vt)
	}
	t0 := time.Now()
	resp, err := u.client.GetContext(ctx, url)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if rec == 0 {
		return resp, nil
	}
	d := time.Since(t0)
	edge := resp.Source == "network" || resp.Source == "revalidated"
	r.mu.Lock()
	r.sources[resp.Source]++
	if edge {
		r.edgeGets++
		if rec == 1 {
			r.edgeLat = append(r.edgeLat, sample{end: time.Now(), lat: d})
		} else {
			r.closedEdge.Add(1)
		}
	}
	r.mu.Unlock()
	return resp, nil
}

// verify checks every body a Client used against the benchmark's own corpus:
// its version must be one the upstream served between the visit's page
// request (less probeTTL for map-validated subresources) and the Get's
// return. A page the edge served stale with a Warning header declares its
// staleness and is exempt. The upstream's clock is bounded below by the virtual times of
// page responses already received, and above by those already sent.
func (r *churnRun) verify() {
	lower := prefixMax(r.recv)
	upper := prefixMax(r.sent)
	type query struct {
		site int
		path string
		vt   time.Duration
		ver  int64
	}
	qs := make([]query, 0, 2*len(r.uses))
	for _, u := range r.uses {
		lo := u.vt
		if !u.html {
			lo = clockAt(lower, u.pageStart-int64(probeTTL))
		}
		qs = append(qs, query{site: u.site, path: u.path, vt: lo}, query{site: u.site, path: u.path, vt: clockAt(upper, u.used)})
	}
	// Sorted queries let webgen reuse each materialized version.
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := qs[order[a]], qs[order[b]]
		if qa.site != qb.site {
			return qa.site < qb.site
		}
		if qa.path != qb.path {
			return qa.path < qb.path
		}
		return qa.vt < qb.vt
	})
	for _, i := range order {
		qs[i].ver = r.corpus.version(qs[i].site, qs[i].path, qs[i].vt)
	}
	for i, u := range r.uses {
		lo, hi := qs[2*i].ver, qs[2*i+1].ver
		if !u.stale && (u.ver < lo || u.ver > hi) {
			r.chk.fail("%s%s: used version %d, but the upstream served versions %d..%d in the allowed window",
				churnHost(u.site), u.path, u.ver, lo, hi)
		}
	}
}

// prefixMax sorts events by wall time and makes vt a running maximum.
func prefixMax(ev []clockEvent) []clockEvent {
	sort.Slice(ev, func(i, j int) bool { return ev[i].wall < ev[j].wall })
	for i := 1; i < len(ev); i++ {
		ev[i].vt = max(ev[i].vt, ev[i-1].vt)
	}
	return ev
}

// clockAt is the running maximum at wall time w (0 before any event).
func clockAt(ev []clockEvent, w int64) time.Duration {
	i := sort.Search(len(ev), func(i int) bool { return ev[i].wall > w })
	if i == 0 {
		return 0
	}
	return ev[i-1].vt
}

// churnStack is one running upstream + catalystd pair.
type churnStack struct {
	up, edge       *child
	upURL, edgeURL string
}

func (s *churnStack) stop() {
	if s == nil {
		return
	}
	s.edge.stop()
	s.up.stop()
}

func startChurnStack(ctx context.Context, cfg *config, rep int) (*churnStack, error) {
	s := &churnStack{}
	upAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s.up, err = startChild(cfg.Self, []string{"upstream", "-seed", fmt.Sprint(cfg.Seed), "-addr", upAddr},
		filepath.Join(cfg.Work, fmt.Sprintf("upstream-%d.log", rep)))
	if err != nil {
		return nil, err
	}
	s.upURL = "http://" + upAddr
	if err := waitReady(ctx, s.up, s.upURL+statsPath); err != nil {
		s.up.stop()
		return nil, err
	}
	cfgPath := filepath.Join(cfg.Work, "tenants.json")
	if err := os.WriteFile(cfgPath, tenantConfigJSON(s.upURL), 0o644); err != nil {
		s.up.stop()
		return nil, err
	}
	edgeAddr, err := freeAddr()
	if err != nil {
		s.up.stop()
		return nil, err
	}
	s.edge, err = startChild(cfg.Catalystd, []string{"-config", cfgPath, "-addr", edgeAddr, "-metrics"},
		filepath.Join(cfg.Work, fmt.Sprintf("catalystd-%d.log", rep)))
	if err != nil {
		s.up.stop()
		return nil, err
	}
	s.edgeURL = "http://" + edgeAddr
	if err := waitReady(ctx, s.edge, s.edgeURL+catalyst.MetricsPath); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// churnURLs is every URL of the workload as (site, path).
func churnURLs(c *churnCorpus) [][2]string {
	var out [][2]string
	for site := range c.sites {
		seen := map[string]bool{}
		for pi, page := range churnPages {
			for _, p := range append([]string{page}, c.subs[site][pi]...) {
				if !seen[p] {
					seen[p] = true
					out = append(out, [2]string{churnHost(site), p})
				}
			}
		}
	}
	return out
}

func upstreamRequests(upURL string) (int64, error) {
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(upURL + statsPath)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var s map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return 0, err
	}
	return s["requests"], nil
}

func runChurn(ctx context.Context, cfg *config, res *result) error {
	corpus := newChurnCorpus(cfg.Seed)
	sched := churnSchedule(cfg.Seed)
	res.Info["corpus_sha256"] = corpus.hash
	res.Info["schedule_sha256"] = churnHash(sched)
	urls := churnURLs(corpus)

	var st *churnStack
	warm := func() error {
		base := &http.Transport{MaxIdleConnsPerHost: cfg.Conns}
		defer base.CloseIdleConnections()
		hc := &http.Client{Timeout: 10 * time.Second, Transport: edgeTransport{addr: strings.TrimPrefix(st.edgeURL, "http://"), base: base}}
		buf := new(bytes.Buffer)
		for _, u := range urls {
			resp, err := get(hc, "http://"+u[0]+u[1], nil, buf)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s%s: status %d", u[0], u[1], resp.StatusCode)
			}
		}
		return nil
	}
	stop, err := setup(res, func(rep int) (func(), error) {
		var err error
		st, err = startChurnStack(ctx, cfg, rep)
		return st.stop, err
	}, warm)
	if err != nil {
		return err
	}
	defer stop()

	var dials atomic.Int64
	tr := newTransport(cfg.Conns, &dials)
	defer tr.CloseIdleConnections()
	r := &churnRun{
		chk: &checker{res: res}, corpus: corpus, sched: sched, t0: time.Now(),
		users:   newChurnUsers(edgeTransport{addr: strings.TrimPrefix(st.edgeURL, "http://"), base: tr}),
		sources: map[string]int64{},
	}
	openDur, closedDur, tracedDur := phaseDurations(cfg)
	if err := parallel(churnWarmVisits, cfg.Conns, func(i int) error { return r.visit(ctx, i) }); err != nil {
		return err
	}
	up0, err := upstreamRequests(st.upURL)
	if err != nil {
		return err
	}
	r.recording.Store(1)
	nOpen := int(churnRate * openDur.Seconds())
	var once sync.Once
	op := func(i int) error {
		if i >= nOpen {
			once.Do(func() { r.recording.Store(2) })
		}
		return r.visit(ctx, churnWarmVisits+i)
	}
	m, err := measure(ctx, cfg, res, st.edge, st.up, st.edgeURL, churnRate, openDur, closedDur, churnVisitWorkers, r.closedEdge.Load, op)
	if err != nil {
		return err
	}
	up1, err := upstreamRequests(st.upURL)
	if err != nil {
		return err
	}
	r.verify()

	closedVisits := float64(m.closed.attempted - m.closed.failed)
	// Visits are large units next to a sampling window, so the visit rate
	// is the calm windows' request rate over the closed loop's requests
	// per visit.
	res.Metrics["peak_visits_per_s"] = ratio(res.Metrics["peak_rps"], ratio(float64(r.closedEdge.Load()), closedVisits))
	res.Metrics["latency.visit_p50_ms"] = ms(calmQuantile(m.open.lat, m.openW, 0.5))
	res.Metrics["latency.visit_p99_ms"] = ms(calmQuantile(m.open.lat, m.openW, 0.99))
	res.Metrics["latency.p50_ms"] = ms(calmQuantile(r.edgeLat, m.openW, 0.5))
	res.Metrics["latency.p99_ms"] = ms(calmQuantile(r.edgeLat, m.openW, 0.99))
	res.Metrics["net_reqs_per_visit"] = ratio(float64(r.edgeGets), float64(r.visits))
	res.Metrics["client.local_ratio"] = ratio(float64(r.sources["cache"]), float64(r.sources["cache"]+r.edgeGets))
	res.Metrics["upstream.reqs_per_visit"] = ratio(float64(up1-up0), float64(r.visits))
	res.Metrics["upstream.cpu_us_per_visit"] = ratio(us(m.upCPU), closedVisits)
	res.Diag["churn.changed_visit_share"] = ratio(float64(r.changed), float64(r.revisits))
	res.Diag["conn.dials"] = float64(dials.Load())
	if dials.Load() > int64(cfg.Conns) {
		res.violate("the load generator dialed %d connections, more than nproc (%d)", dials.Load(), cfg.Conns)
	}
	res.Info["visits"] = fmt.Sprint(r.visits)
	res.Info["revisits"] = fmt.Sprint(r.revisits)
	churnScrapeMetrics(res, m.before, m.after)
	if res.Failed > 0 || !res.Correct {
		return nil
	}
	if cfg.Trace {
		stop()
		return traceChurn(ctx, cfg, res, corpus, sched, tracedDur)
	}
	return nil
}

func churnScrapeMetrics(res *result, a, b *scrape) {
	cache := func(store, counter string) float64 {
		return delta(a, b, func(k string) bool {
			return k == "middleware."+store+"."+counter ||
				strings.HasPrefix(k, "tenant.") && strings.HasSuffix(k, "."+store+"."+counter)
		})
	}
	html := float64(b.Telemetry.Histograms["middleware.html_ns"].Count - a.Telemetry.Histograms["middleware.html_ns"].Count)
	// GetOrLoad counts a miss twice (before and inside its flight), so a
	// render lookup is a hit or a flight. A render lookup happens only
	// when the hot index could not answer.
	renderLookups := cache("renders", "hits") + cache("renders", "loads") + cache("renders", "loads_shared")
	probeLookups := cache("probes", "hits") + cache("probes", "misses")
	res.Metrics["middleware.render_hit_ratio"] = ratio(cache("renders", "hits"), renderLookups)
	res.Metrics["middleware.hot_hit_ratio"] = ratio(html-renderLookups, html)
	// A probe flight runs only when the probe cache held no fresh entry.
	res.Metrics["middleware.probe_hit_ratio"] = 1 - ratio(cache("probes", "loads")+cache("probes", "loads_shared"), probeLookups)
	res.Metrics["middleware.encode_reuse_ratio"] = ratio(delta(a, b, named("middleware.encode_reuses")), html)
	res.Metrics["middleware.render_evictions"] = delta(a, b, named("middleware.renders_evicted"))
	res.Metrics["middleware.probe_evictions"] = delta(a, b, named("middleware.probes_swept"))
	res.Metrics["middleware.gate_sheds"] = delta(a, b, func(k string) bool {
		return (strings.HasPrefix(k, "middleware.") || strings.HasPrefix(k, "tenant.")) && strings.Contains(k, ".gate.shed_")
	})
	for _, l := range []string{"stale", "passthrough", "rejected"} {
		res.Metrics["middleware.ladder_"+l] = delta(a, b, named("middleware.ladder_"+l))
	}
	h := b.Telemetry.Histograms["middleware.html_ns"]
	res.Metrics["middleware.html_p50_us"] = float64(h.P50NS) / 1e3
	res.Metrics["middleware.html_p99_us"] = float64(h.P99NS) / 1e3
}
