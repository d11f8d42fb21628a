package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/resilience"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// The in-process stacks below repeat cmd/catalystd's construction with its
// default flags plus -metrics: the same public constructors, options and
// wrapping order, with span wrappers added at each layer boundary. The
// equivalence test holds them to catalystd's responses.

// newDirStack is catalystd -dir DIR -metrics. catalyst.NewServer is
// NewFSContent + server.New; it is unrolled here so the Content can be
// wrapped.
func newDirStack(dir string, tr *tracer) (http.Handler, error) {
	reg := telemetry.NewRegistry()
	policy, err := cachestore.ParsePolicy("lru")
	if err != nil {
		return nil, err
	}
	fsc, err := server.NewFSContent(os.DirFS(dir), catalyst.DefaultPolicy)
	if err != nil {
		return nil, err
	}
	srv := server.New(tracedContent{tr: tr, inner: fsc}, server.Options{
		Catalyst:          true,
		MapOptions:        core.BuildOptions{},
		AccessLogSize:     256,
		Telemetry:         reg,
		MaxInflight:       256,
		RenderCachePolicy: policy,
	})
	return tr.handler(layerServer, catalyst.WithMetricsOptions(srv, catalyst.MetricsOptions{Telemetry: reg})), nil
}

// tenantConfigJSON is the two-tenant catalystd config: even sites route to
// t0, odd to t1, both fronting the one upstream.
func tenantConfigJSON(upstreamURL string) []byte {
	var b strings.Builder
	b.WriteString(`{"tenants": [`)
	for t := 0; t < 2; t++ {
		var hosts []string
		for i := t; i < churnSites; i += 2 {
			hosts = append(hosts, `"`+churnHost(i)+`"`)
		}
		if t > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name": "t%d", "upstream": %q, "hosts": [%s], "cacheBudget": %d}`,
			t, upstreamURL, strings.Join(hosts, ", "), churnTenantBudget)
	}
	b.WriteString("]}\n")
	return []byte(b.String())
}

// churnStackInProc is catalystd -config with the tenant config above and
// -metrics, fronting upstreamURL.
type churnStackInProc struct {
	handler  http.Handler
	resolver *tenant.Resolver
	stops    []func()
}

func (s *churnStackInProc) close() {
	for _, stop := range s.stops {
		stop()
	}
}

func newChurnStackInProc(upstreamURL string, tr *tracer) (*churnStackInProc, error) {
	reg := telemetry.NewRegistry()
	cfg, err := tenant.ParseConfig(tenantConfigJSON(upstreamURL))
	if err != nil {
		return nil, err
	}
	resolver, err := cfg.Resolver()
	if err != nil {
		return nil, err
	}
	s := &churnStackInProc{resolver: resolver}
	proxies := map[string]http.Handler{}
	for _, t := range resolver.Tenants() {
		u, err := url.Parse(t.Upstream)
		if err != nil {
			s.close()
			return nil, err
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			w.WriteHeader(http.StatusBadGateway)
		}
		proxies[t.Name] = proxy
		breaker := resilience.NewBreaker(resilience.BreakerOptions{
			FailureThreshold: 5, Cooldown: 5 * time.Second, Telemetry: reg, Name: "tenant." + t.Name + ".origin",
		})
		t.Breaker = breaker
		const interval = 2 * time.Second
		health := resilience.NewHealthChecker(breaker, healthProbe(u, interval), resilience.HealthOptions{
			Interval: interval, Telemetry: reg, Name: "tenant." + t.Name + ".health",
		})
		health.Start()
		s.stops = append(s.stops, health.Stop)
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, ok := tenant.FromContext(r.Context())
		if !ok {
			http.Error(w, "no tenant serves this host", http.StatusMisdirectedRequest)
			return
		}
		proxies[t.Name].ServeHTTP(w, r)
	})
	policy, err := cachestore.ParsePolicy("lru")
	if err != nil {
		s.close()
		return nil, err
	}
	mw := catalyst.Middleware(tr.handler(layerInner, inner), catalyst.MiddlewareOptions{
		Telemetry:   reg,
		MaxInflight: 256,
		CachePolicy: policy,
	})
	h := tr.handler(layerTenant, tenant.Handler(resolver, reg, tr.handler(layerMiddleware, mw)))
	s.handler = catalyst.WithMetricsHandler(h, catalyst.MetricsOptions{Telemetry: reg})
	return s, nil
}

// healthProbe mirrors catalystd's upstream liveness probe.
func healthProbe(u *url.URL, interval time.Duration) func(ctx context.Context) error {
	client := &http.Client{Timeout: interval}
	target := u.String()
	return func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode >= http.StatusInternalServerError {
			return fmt.Errorf("upstream %s: %s", u.Host, resp.Status)
		}
		return nil
	}
}

// serveLoopback serves h on a loopback port until close is called.
func serveLoopback(h http.Handler) (addr string, closeFn func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// traceBlock is how long the replay runs before toggling the wrappers, so
// the on and off throughputs are measured interleaved.
const traceBlock = 250 * time.Millisecond

// replay runs op sequentially for dur, alternating traceBlock-long blocks
// with the wrappers on and off, and reports the request throughput of
// each. op returns how many requests it made.
func replay(ctx context.Context, tr *tracer, dur time.Duration, op func(i int) (int, error)) (rpsOn, rpsOff float64, err error) {
	var n [2]int
	var spent [2]time.Duration
	deadline := time.Now().Add(dur)
	i := 0
	for block := 0; time.Now().Before(deadline) && ctx.Err() == nil; block++ {
		on := block%2 == 0
		tr.on.Store(on)
		side := 1
		if on {
			side = 0
		}
		start := time.Now()
		for time.Since(start) < traceBlock {
			reqs, err := op(i)
			if err != nil {
				tr.on.Store(false)
				return 0, 0, err
			}
			i++
			n[side] += reqs
		}
		spent[side] += time.Since(start)
	}
	tr.on.Store(false)
	return float64(n[0]) / spent[0].Seconds(), float64(n[1]) / max(spent[1].Seconds(), 1e-9), nil
}

// notApplicable reports 0 for every per-layer metric named by one of
// prefixes that the workload's stack does not have.
func notApplicable(res *result, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				res.Metrics[m.Name] = 0
			}
		}
	}
}

func recordOverhead(res *result, on, off float64) {
	res.Metrics["trace.rps_on"] = on
	res.Metrics["trace.rps_off"] = off
	res.Metrics["trace.overhead_frac"] = 1 - ratio(on, off)
}

// traceDir replays nav-hot or static-revalidate through the in-process
// -dir stack, one request at a time.
func traceDir(ctx context.Context, cfg *config, res *result, w *dirWorkload, dur time.Duration) error {
	tr := newTracer()
	tr.on.Store(false)
	h, err := newDirStack(w.site.Dir, tr)
	if err != nil {
		return err
	}
	addr, closeFn, err := serveLoopback(h)
	if err != nil {
		return err
	}
	defer closeFn()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	base := "http://" + addr
	buf := new(bytes.Buffer)
	for _, p := range w.warm {
		if _, err := get(hc, base+p, nil, buf); err != nil {
			return err
		}
	}
	counts := map[string]int{}
	rpsOn, rpsOff, err := replay(ctx, tr, dur, func(i int) (int, error) {
		req := w.request(i)
		id := int64(i + 1)
		tr.cur.Store(id)
		hdr := http.Header{requestIDHeader: {fmt.Sprint(id)}}
		for k, v := range req.hdr {
			hdr[k] = v
		}
		start := tr.now()
		resp, err := get(hc, base+req.path, hdr, buf)
		if err != nil {
			return 0, err
		}
		if tr.on.Load() {
			tr.add(span{Req: id, Layer: layerRoot, Path: req.path, Start: start, End: tr.now()})
			counts[req.path]++
		}
		return 1, w.check(req, resp, buf.Bytes())
	})
	if err != nil {
		return err
	}
	recordOverhead(res, rpsOn, rpsOff)
	serverLayerMetrics(res, tr)
	// catalystd -dir has no middleware, tenants, Client or upstream.
	notApplicable(res, "middleware.", "tenant.", "client.", "upstream.")

	var pages []corePage
	if w.html {
		fsc, err := server.NewFSContent(os.DirFS(w.site.Dir), catalyst.DefaultPolicy)
		if err != nil {
			return err
		}
		for _, p := range w.site.Pages {
			if counts[p] > 0 {
				res, _ := fsc.Get(p)
				pages = append(pages, corePage{url: p, body: string(res.Body), res: contentResolver{fsc}, weight: counts[p]})
			}
		}
	}
	coreMetrics(res, pages)
	return writeSpans(cfg, tr)
}

func writeSpans(cfg *config, tr *tracer) error {
	dir := filepath.Join(cfg.BuildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)))
}

func isHTMLPath(p string) bool { return server.IsHTML(server.TypeByPath(p)) }

// meanSelf averages, over the parent-layer spans whose path is or is not
// HTML, the parent's time minus the child-layer spans inside it, and the
// number of those children.
func meanSelf(idx spanIndex, parent, kid string, html bool) (self time.Duration, kids float64) {
	var total time.Duration
	var n, nk int
	for _, layers := range idx {
		for _, p := range layers[parent] {
			if isHTMLPath(p.Path) != html {
				continue
			}
			var in []span
			for _, k := range layers[kid] {
				if k.Start >= p.Start && k.End <= p.End {
					in = append(in, k)
				}
			}
			total += selfTime(p, in)
			n++
			nk += len(in)
		}
	}
	if n == 0 {
		return 0, 0
	}
	return total / time.Duration(n), float64(nk) / float64(n)
}

func serverLayerMetrics(res *result, tr *tracer) {
	idx := tr.index()
	htmlSelf, gets := meanSelf(idx, layerServer, layerContent, true)
	staticSelf, _ := meanSelf(idx, layerServer, layerContent, false)
	res.Metrics["server.html_self_us"] = us(htmlSelf)
	res.Metrics["server.static_self_us"] = us(staticSelf)
	res.Metrics["server.content_gets_per_html"] = gets
}

// contentResolver adapts a server.Content to core.Resolver the way the
// server's own (unexported) adapter does.
type contentResolver struct{ c server.Content }

func (r contentResolver) ETagFor(p string) (etag.Tag, bool) {
	res, ok := r.c.Get(p)
	if !ok {
		return etag.Tag{}, false
	}
	return res.ETag, true
}

func (r contentResolver) StylesheetBody(p string) (string, bool) {
	res, ok := r.c.Get(p)
	if !ok || !server.IsCSS(res.ContentType) {
		return "", false
	}
	return string(res.Body), true
}

// corePage is one page the workload served, with how often it did.
type corePage struct {
	url, body string
	res       core.Resolver
	weight    int
}

// coreReps is how many times each page's core calls are timed.
const coreReps = 20

// coreMetrics times the core calls the serving path makes for each page —
// extract the page's references, extract each stylesheet's, resolve the
// map, encode it — averaged per call and weighted by how often the page
// was served. A workload that serves no HTML reads zero.
func coreMetrics(res *result, pages []corePage) {
	var page, css, resolve, encode time.Duration
	var nPage, nCSS, entries float64
	for _, p := range pages {
		var sheets [][2]string
		var walk func(refs []core.Ref, depth int)
		walk = func(refs []core.Ref, depth int) {
			for _, r := range refs {
				if r.CSS && depth < 5 {
					if body, ok := p.res.StylesheetBody(r.Key); ok {
						sheets = append(sheets, [2]string{r.Key, body})
						walk(core.ExtractCSSRefs(r.Key, body), depth+1)
					}
				}
			}
		}
		walk(core.ExtractPageRefs(p.url, p.body), 0)
		w := float64(p.weight)
		for rep := 0; rep < coreReps; rep++ {
			t0 := time.Now()
			refs := core.ExtractPageRefs(p.url, p.body)
			t1 := time.Now()
			for _, s := range sheets {
				core.ExtractCSSRefs(s[0], s[1])
			}
			t2 := time.Now()
			m := core.ResolveRefs(refs, p.res, core.BuildOptions{})
			t3 := time.Now()
			m.Encode()
			t4 := time.Now()
			page += time.Duration(w * float64(t1.Sub(t0)))
			css += time.Duration(w * float64(t2.Sub(t1)))
			resolve += time.Duration(w * float64(t3.Sub(t2)))
			encode += time.Duration(w * float64(t4.Sub(t3)))
			nPage += w
			nCSS += w * float64(len(sheets))
			entries += w * float64(len(m))
		}
	}
	res.Metrics["core.extract_page_refs_us"] = ratio(us(page), nPage)
	res.Metrics["core.extract_css_refs_us"] = ratio(us(css), nCSS)
	res.Metrics["core.resolve_refs_us"] = ratio(us(resolve), nPage)
	res.Metrics["core.encode_us"] = ratio(us(encode), nPage)
	res.Metrics["core.map_entries_per_html"] = ratio(entries, nPage)
}

// traceChurn replays revisit-churn's visits, one at a time, through an
// in-process upstream and edge.
func traceChurn(ctx context.Context, cfg *config, res *result, corpus *churnCorpus, sched []visit, dur time.Duration) error {
	tr := newTracer()
	tr.on.Store(false)
	up := newUpstream(cfg.Seed, tr)
	upAddr, closeUp, err := serveLoopback(up)
	if err != nil {
		return err
	}
	defer closeUp()
	stack, err := newChurnStackInProc("http://"+upAddr, tr)
	if err != nil {
		return err
	}
	defer stack.close()
	edgeAddr, closeEdge, err := serveLoopback(stack.handler)
	if err != nil {
		return err
	}
	defer closeEdge()

	base := &http.Transport{MaxConnsPerHost: 1}
	defer base.CloseIdleConnections()
	rt := tracedTransport{tr: tr, inner: edgeTransport{addr: edgeAddr, base: base}}
	users := newChurnUsers(rt)
	chk := &checker{res: res}
	hc := &http.Client{Transport: edgeTransport{addr: edgeAddr, base: base}, Timeout: 10 * time.Second}
	buf := new(bytes.Buffer)
	for _, u := range churnURLs(corpus) {
		if _, err := get(hc, "http://"+u[0]+u[1], nil, buf); err != nil {
			return err
		}
	}

	// Each Client Get is one traced request: its id rides the context to
	// the edge transport, and the root span is the Get itself.
	var nextID int64
	var reqs []*http.Request
	pageHits := map[[2]int]int{}
	bySource := map[string][]time.Duration{}
	traced := func(ctx context.Context, u *churnUser, rawURL string, vt time.Duration) (*catalyst.ClientResponse, error) {
		nextID++
		id := nextID
		tr.cur.Store(id)
		ctx = context.WithValue(ctx, reqIDKey, id)
		if vt >= 0 {
			ctx = context.WithValue(ctx, clockKey, vt)
		}
		start := tr.now()
		resp, err := u.client.GetContext(ctx, rawURL)
		end := tr.now()
		if err != nil {
			return nil, err
		}
		if tr.on.Load() {
			pu, _ := url.Parse(rawURL)
			tr.add(span{Req: id, Layer: layerRoot, Path: pu.Path, Start: start, End: end, Note: resp.Source})
			tr.add(span{Req: id, Layer: layerClientGet, Path: pu.Path, Start: start, End: end, Note: resp.Source})
			bySource[resp.Source] = append(bySource[resp.Source], time.Duration(end-start))
			if resp.Source != "cache" && len(reqs) < 4096 {
				reqs = append(reqs, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: pu.Path}, Host: pu.Host, Header: http.Header{}})
			}
		}
		return resp, nil
	}
	rpsOn, rpsOff, err := replay(ctx, tr, dur, func(i int) (int, error) {
		v := sched[i%len(sched)]
		u := users[v.User]
		host := churnHost(v.Site)
		resp, err := traced(ctx, u, "http://"+host+v.Page, vtOf(i))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, chk.fail("%s%s: status %d", host, v.Page, resp.StatusCode)
		}
		if tr.on.Load() {
			pageHits[[2]int{v.Site, pageIndex(v.Page)}]++
		}
		subs := corpus.subs[v.Site][pageIndex(v.Page)]
		for _, p := range subs {
			resp, err := traced(ctx, u, "http://"+host+p, -1)
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, chk.fail("%s%s: status %d", host, p, resp.StatusCode)
			}
		}
		return 1 + len(subs), nil
	})
	if err != nil {
		return err
	}
	recordOverhead(res, rpsOn, rpsOff)
	serverLayerMetrics(res, tr)

	idx := tr.index()
	mwHTML, inner := meanSelf(idx, layerMiddleware, layerInner, true)
	mwPass, _ := meanSelf(idx, layerMiddleware, layerInner, false)
	res.Metrics["middleware.html_self_us"] = us(mwHTML)
	res.Metrics["middleware.passthrough_self_us"] = us(mwPass)
	res.Metrics["middleware.inner_calls_per_html"] = inner
	tHTML, _ := meanSelf(idx, layerTenant, layerMiddleware, true)
	tPass, _ := meanSelf(idx, layerTenant, layerMiddleware, false)
	res.Metrics["tenant.self_us"] = us((tHTML + tPass) / 2)
	var clientSelf time.Duration
	var nGets int
	for _, layers := range idx {
		for _, g := range layers[layerClientGet] {
			clientSelf += selfTime(g, layers[layerClientRT])
			nGets++
		}
	}
	if nGets > 0 {
		res.Metrics["client.self_us"] = us(clientSelf / time.Duration(nGets))
	}
	for _, src := range []string{"network", "revalidated", "cache"} {
		d := bySource[src]
		var sum time.Duration
		for _, x := range d {
			sum += x
		}
		res.Metrics["client.get_us."+src] = ratio(us(sum), float64(len(d)))
	}
	// In proxy mode catalystd has no server.Server to scrape; the
	// upstream's plain servers are traced above.
	notApplicable(res, "server.maps_built_per_html", "server.render_hit_ratio",
		"server.not_modified_ratio", "server.map_bytes_per_html")
	res.Metrics["tenant.resolve_ns"] = resolveNS(stack.resolver, reqs)

	var pages []corePage
	for key, n := range pageHits {
		host := churnHost(key[0])
		content := up.contents[host]
		page := churnPages[key[1]]
		pr, ok := content.Get(page)
		if !ok {
			return fmt.Errorf("%s%s: missing from the upstream", host, page)
		}
		pages = append(pages, corePage{url: page, body: string(pr.Body), res: contentResolver{content}, weight: n})
	}
	coreMetrics(res, pages)
	return writeSpans(cfg, tr)
}

// resolveReps is how many times the resolver timing walks the recorded
// requests.
const resolveReps = 200

// resolveNS is the per-call time of Resolver.ResolveRequest on the
// workload's edge requests.
func resolveNS(r *tenant.Resolver, reqs []*http.Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	t0 := time.Now()
	hit := 0
	for rep := 0; rep < resolveReps; rep++ {
		for _, req := range reqs {
			if r.ResolveRequest(req) != nil {
				hit++
			}
		}
	}
	if hit != resolveReps*len(reqs) {
		return -1
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(resolveReps*len(reqs))
}
