package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/core"
)

// Open-loop rates. Each is well under the daemon's closed-loop peak on a
// 2-core host, so the open-loop phase measures latency, not a backlog.
const (
	navRate    = 600.0  // requests/s
	staticRate = 1000.0 // requests/s
	churnRate  = 15.0   // visits/s
)

// setupReps is how many times a run sets up afresh; setup_s is the
// median.
const setupReps = 5

// openShare is the open loop's part of a run's untraced time. The closed
// loop gets the rest: its throughput and CPU per request are the gated
// metrics, and more windows give calm more quiet ones to keep.
const openShare = 0.3

// phaseDurations splits a run's measured seconds between the open-loop and
// closed-loop phases, and the traced replay when there is one.
func phaseDurations(cfg *config) (open, closed, traced time.Duration) {
	total := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		traced = total / 2
	}
	open = time.Duration(float64(total-traced) * openShare)
	return open, total - traced - open, traced
}

// bufPool holds response-body buffers; bodies run to hundreds of KB.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// get performs one GET and reads the body into buf.
func get(hc *http.Client, url string, hdr http.Header, buf *bytes.Buffer) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return resp, nil
}

// checker records failed correctness checks from concurrent workers.
type checker struct {
	mu  sync.Mutex
	res *result
}

func (c *checker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.mu.Lock()
	c.res.violate("%v", err)
	c.mu.Unlock()
	return err
}

// navCheck verifies nav-hot responses: the injected body and its tag, and
// an X-Etag-Config whose every entry is the tag the daemon serves for that
// path. A header identical to one already verified for the page is not
// decoded again.
type navCheck struct {
	*checker
	site *staticSite
	mu   sync.Mutex
	good map[string]string
}

func (c *navCheck) check(page string, resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		return c.fail("%s: status %d", page, resp.StatusCode)
	}
	if got := resp.Header.Get("Etag"); got != c.site.InjectedTag[page] {
		return c.fail("%s: ETag %s, want %s", page, got, c.site.InjectedTag[page])
	}
	if !bytes.Equal(body, c.site.Injected[page]) {
		return c.fail("%s: body differs from the injected page (%d bytes, want %d)", page, len(body), len(c.site.Injected[page]))
	}
	hdr := resp.Header.Get(catalyst.HeaderName)
	c.mu.Lock()
	seen := c.good[page] == hdr
	c.mu.Unlock()
	if seen {
		return nil
	}
	m, err := core.DecodeMap(hdr)
	if err != nil {
		return c.fail("%s: X-Etag-Config does not decode: %v", page, err)
	}
	if len(m) == 0 {
		return c.fail("%s: empty X-Etag-Config", page)
	}
	for p, tag := range m {
		want, ok := c.site.Tag[p]
		if !ok {
			return c.fail("%s: X-Etag-Config names %s, which the daemon does not serve", page, p)
		}
		if tag.String() != want {
			return c.fail("%s: X-Etag-Config maps %s to %s, the daemon serves %s", page, p, tag, want)
		}
	}
	c.mu.Lock()
	c.good[page] = hdr
	c.mu.Unlock()
	return nil
}

// staticCheck verifies static-revalidate responses: a conditional request
// for the current tag gets a 304 carrying it; any other gets the file.
func staticCheck(c *checker, site *staticSite, path string, cond bool, resp *http.Response, body []byte) error {
	want := site.Tag[path]
	got := resp.Header.Get("Etag")
	if cond {
		if resp.StatusCode != http.StatusNotModified || got != want {
			return c.fail("%s: conditional GET got %d ETag %s, want 304 %s", path, resp.StatusCode, got, want)
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK || got != want {
		return c.fail("%s: GET got %d ETag %s, want 200 %s", path, resp.StatusCode, got, want)
	}
	if len(body) != site.Size[path] || !bytes.HasPrefix(body, []byte(site.Stamp[path])) {
		return c.fail("%s: body of %d bytes is not the file (%d bytes)", path, len(body), site.Size[path])
	}
	return nil
}

// dirRequest is one scheduled request against the -dir daemon.
type dirRequest struct {
	path string
	hdr  http.Header
	cond bool
}

// dirWorkload is what distinguishes nav-hot from static-revalidate.
type dirWorkload struct {
	site     *staticSite
	warm     []string               // every URL of the workload
	request  func(i int) dirRequest // the i-th scheduled request
	check    func(req dirRequest, resp *http.Response, body []byte) error
	rate     float64
	schedule string // schedule hash
	html     bool   // the workload requests HTML pages
}

func runNavHot(ctx context.Context, cfg *config, res *result) error {
	site, err := writeStaticSite(filepath.Join(cfg.Work, "site"), cfg.Seed)
	if err != nil {
		return err
	}
	sched := navSchedule(site, cfg.Seed)
	nc := &navCheck{checker: &checker{res: res}, site: site, good: map[string]string{}}
	w := &dirWorkload{
		site: site,
		warm: site.Pages,
		request: func(i int) dirRequest {
			return dirRequest{path: site.Pages[sched[i%len(sched)]]}
		},
		check: func(req dirRequest, resp *http.Response, body []byte) error {
			return nc.check(req.path, resp, body)
		},
		rate:     navRate,
		schedule: navHash(sched),
		html:     true,
	}
	return runDir(ctx, cfg, res, w)
}

func runStatic(ctx context.Context, cfg *config, res *result) error {
	site, err := writeStaticSite(filepath.Join(cfg.Work, "site"), cfg.Seed)
	if err != nil {
		return err
	}
	sched := staticSchedule(site, cfg.Seed)
	c := &checker{res: res}
	hdrs := make(map[string]http.Header, len(site.Res))
	for _, p := range site.Res {
		hdrs[p] = http.Header{"If-None-Match": {site.Tag[p]}}
	}
	w := &dirWorkload{
		site: site,
		warm: site.Res,
		request: func(i int) dirRequest {
			r := sched[i%len(sched)]
			p := site.Res[r.Res]
			if r.Cond {
				return dirRequest{path: p, hdr: hdrs[p], cond: true}
			}
			return dirRequest{path: p}
		},
		check: func(req dirRequest, resp *http.Response, body []byte) error {
			return staticCheck(c, site, req.path, req.cond, resp, body)
		},
		rate:     staticRate,
		schedule: staticHash(sched),
	}
	return runDir(ctx, cfg, res, w)
}

// startDirDaemon starts catalystd -dir over the site and waits until it
// answers.
func startDirDaemon(ctx context.Context, cfg *config, dir string, rep int) (*child, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	d, err := startChild(cfg.Catalystd, []string{"-dir", dir, "-addr", addr, "-metrics"},
		filepath.Join(cfg.Work, fmt.Sprintf("catalystd-%d.log", rep)))
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	if err := waitReady(ctx, d, base+catalyst.MetricsPath); err != nil {
		d.stop()
		return nil, "", err
	}
	return d, base, nil
}

// setup starts the workload's processes afresh setupReps times and
// returns the last start, still running, with the median set-up time:
// spawn, ready, and a warm-up pass that touches every URL once.
func setup(res *result, start func(rep int) (stop func(), err error), warm func() error) (func(), error) {
	var times []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		stop, err := start(rep)
		if err != nil {
			return nil, err
		}
		if err := warm(); err != nil {
			stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			res.Metrics["setup_s"] = median(times)
			return stop, nil
		}
		stop()
	}
}

func runDir(ctx context.Context, cfg *config, res *result, w *dirWorkload) error {
	res.Info["corpus_sha256"] = w.site.Hash
	res.Info["schedule_sha256"] = w.schedule
	var d *child
	var base string
	warm := func() error {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Conns}, Timeout: 10 * time.Second}
		defer hc.CloseIdleConnections()
		buf := new(bytes.Buffer)
		for _, p := range w.warm {
			resp, err := get(hc, base+p, nil, buf)
			if err != nil {
				return err
			}
			if err := w.check(dirRequest{path: p}, resp, buf.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}
	stop, err := setup(res, func(rep int) (func(), error) {
		var err error
		d, base, err = startDirDaemon(ctx, cfg, w.site.Dir, rep)
		return d.stop, err
	}, warm)
	if err != nil {
		return err
	}
	defer stop()

	var dials atomic.Int64
	tr := newTransport(cfg.Conns, &dials)
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	op := func(i int) error {
		req := w.request(i)
		buf := bufPool.Get().(*bytes.Buffer)
		defer bufPool.Put(buf)
		resp, err := get(hc, base+req.path, req.hdr, buf)
		if err != nil {
			return err
		}
		return w.check(req, resp, buf.Bytes())
	}
	openDur, closedDur, tracedDur := phaseDurations(cfg)
	m, err := measure(ctx, cfg, res, d, nil, base, w.rate, openDur, closedDur, cfg.Conns, nil, op)
	if err != nil {
		return err
	}
	res.Metrics["latency.visit_p50_ms"] = res.Metrics["latency.p50_ms"]
	res.Metrics["latency.visit_p99_ms"] = res.Metrics["latency.p99_ms"]
	res.Metrics["net_reqs_per_visit"] = 1
	res.Diag["churn.changed_visit_share"] = 0
	res.Diag["conn.dials"] = float64(dials.Load())
	if dials.Load() > int64(cfg.Conns) {
		res.violate("the load generator dialed %d connections, more than nproc (%d)", dials.Load(), cfg.Conns)
	}
	dirScrapeMetrics(res, m.before, m.after, w.html)
	if res.Failed > 0 || !res.Correct {
		return nil
	}
	if cfg.Trace {
		stop()
		return traceDir(ctx, cfg, res, w, tracedDur)
	}
	return nil
}

// measured is what measure observed around the measured phases.
type measured struct {
	before, after *scrape
	open, closed  *phase
	openW         []window
	upCPU         time.Duration // upstream CPU in the closed loop
}

// measure runs the open-loop phase at rate and the closed-loop phase with
// nproc workers, and records the metrics every workload shares. For
// revisit-churn an operation is a visit and reqs counts the closed loop's
// requests to the edge; elsewhere an operation is one request. Rates, CPU
// per request and latencies come from the calm windows (see calm).
func measure(ctx context.Context, cfg *config, res *result, d, up *child, base string, rate float64,
	openDur, closedDur time.Duration, openWorkers int, reqs func() int64, op func(i int) error) (*measured, error) {
	m := &measured{closed: &phase{}}
	if reqs == nil {
		reqs = m.closed.ok.Load
	}
	var procErr error
	take := func() snap {
		s := snap{t: time.Now(), host: readHostCPU(), ops: m.closed.ok.Load(), reqs: reqs()}
		var err error
		if s.proc, err = readProc(d.pid()); err != nil {
			procErr = err
		}
		if up != nil {
			if s.up, err = readProc(up.pid()); err != nil {
				procErr = err
			}
		}
		return s
	}
	during := func(f func()) []window {
		stop := make(chan struct{})
		out := make(chan []window)
		go func() { out <- sampleWindows(stop, take) }()
		f()
		close(stop)
		return <-out
	}
	var err error
	if m.before, err = fetchScrape(base); err != nil {
		return nil, err
	}
	m.openW = during(func() { m.open = openLoop(ctx, rate, openDur, openWorkers, op) })
	closedW := during(func() { closedLoop(ctx, closedDur, cfg.Conns, len(m.open.lat), m.closed, op) })
	if procErr != nil {
		return nil, procErr
	}
	if m.after, err = fetchScrape(base); err != nil {
		return nil, err
	}
	first, last := closedW[0].a, closedW[len(closedW)-1].b
	m.upCPU = last.up.cpu - first.up.cpu
	res.Attempted += m.open.attempted + m.closed.attempted
	res.Failed += m.open.failed + m.closed.failed
	opsPerSec, reqsPerSec, cpuPerReq := calmRates(closedW)
	res.Metrics["peak_rps"] = reqsPerSec
	res.Metrics["peak_visits_per_s"] = opsPerSec
	res.Metrics["cpu_us_per_req"] = us(cpuPerReq)
	res.Metrics["latency.p50_ms"] = ms(calmQuantile(m.open.lat, m.openW, 0.5))
	res.Metrics["latency.p99_ms"] = ms(calmQuantile(m.open.lat, m.openW, 0.99))
	res.Metrics["rss_mb"] = float64(last.proc.hwmKB) / 1024
	res.Metrics["proc.ctxsw_per_req"] = ratio(float64(last.proc.ctxsw-first.proc.ctxsw), float64(last.reqs-first.reqs))
	res.Metrics["proc.threads"] = float64(last.proc.thread)
	res.Diag["gen.lag_p99_ms"] = ms(quantile(sortDurations(m.open.lag), 0.99))
	res.Diag["host.steal_frac"] = stealFrac(m.openW[0].a.host, last.host)
	res.Info["open_ops"] = fmt.Sprint(len(m.open.lat))
	res.Info["closed_ops"] = fmt.Sprint(m.closed.attempted)
	return m, nil
}

// scrape is the part of the /debug/catalystd payload the benchmark reads.
type scrape struct {
	Telemetry struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
			P50NS int64 `json:"p50Ns"`
			P99NS int64 `json:"p99Ns"`
		} `json:"histograms"`
	} `json:"telemetry"`
}

func fetchScrape(base string) (*scrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(base + catalyst.MetricsPath)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	var s scrape
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&s); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return &s, nil
}

// delta sums the change of every counter whose name matches.
func delta(a, b *scrape, match func(string) bool) float64 {
	var n int64
	for k, v := range b.Telemetry.Counters {
		if match(k) {
			n += v - a.Telemetry.Counters[k]
		}
	}
	return float64(n)
}

func named(name string) func(string) bool { return func(k string) bool { return k == name } }

// dirScrapeMetrics derives the server's scrape metrics. Every request of
// an HTML workload is a page.
func dirScrapeMetrics(res *result, a, b *scrape, htmlWorkload bool) {
	reqs := delta(a, b, named("server.requests"))
	maps := delta(a, b, named("server.maps_built"))
	// A render miss is counted once per lookup on its way to the flight
	// that builds it, so a render lookup is a hit or a flight.
	hits := delta(a, b, named("server.renders.hits"))
	misses := delta(a, b, named("server.renders.loads")) + delta(a, b, named("server.renders.loads_shared"))
	html := 0.0
	if htmlWorkload {
		html = reqs
	}
	res.Metrics["server.maps_built_per_html"] = ratio(maps, html)
	res.Metrics["server.render_hit_ratio"] = ratio(hits, hits+misses)
	res.Metrics["server.not_modified_ratio"] = ratio(delta(a, b, named("server.not_modified")), reqs)
	res.Metrics["server.map_bytes_per_html"] = ratio(delta(a, b, named("server.map_bytes")), maps)
}
