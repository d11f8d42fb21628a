package main

import (
	"context"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// failedLatency stands in for the latency of a failed operation: a failure
// misses every latency limit.
const failedLatency = time.Hour

// phase is what one load phase observed.
type phase struct {
	attempted, failed int64
	lat               []sample        // per operation, timed from its scheduled start
	lag               []time.Duration // open loop: how late each operation was sent
	ok                atomic.Int64    // operations completed without error so far
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
}

// sample is one timed operation: when it completed and how long it took.
type sample struct {
	end time.Time
	lat time.Duration
}

// snap is a reading of the counters a window is made of.
type snap struct {
	t         time.Time
	host      hostCPU
	proc, up  procStat // catalystd and, for revisit-churn, the upstream
	ops, reqs int64
}

// window is the span between two snaps.
type window struct{ a, b snap }

func (w window) steal() float64 { return stealFrac(w.a.host, w.b.host) }

// sampleEvery is the window length of the measured phases.
const sampleEvery = 200 * time.Millisecond

// sampleWindows snaps at once, then every sampleEvery until stop is
// closed, then once more, and returns the windows between the snaps. A
// last window shorter than half the period is folded into the one before.
func sampleWindows(stop <-chan struct{}, take func() snap) []window {
	snaps := []snap{take()}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		case <-tick.C:
		}
		s := take()
		if done && len(snaps) > 1 && s.t.Sub(snaps[len(snaps)-1].t) < sampleEvery/2 {
			snaps[len(snaps)-1] = s
		} else {
			snaps = append(snaps, s)
		}
	}
	ws := make([]window, 0, len(snaps)-1)
	for k := 1; k < len(snaps); k++ {
		ws = append(ws, window{snaps[k-1], snaps[k]})
	}
	return ws
}

// calm returns the windows in which the hypervisor stole the least CPU
// time from this host: those with the least steal seen, and at least the
// quietest tenth. Interference from outside the benchmark only slows it
// down and shows up as steal; the program under test does not cause
// steal, so choosing windows by it keeps the reading to the host's quiet
// periods without favouring the program's own good or bad moments. On a
// quiet host most windows have no steal at all and all of those are kept.
func calm(ws []window) []window {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal()
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)-1)/10]
	var out []window
	for i, w := range ws {
		if steal[i] <= limit {
			out = append(out, w)
		}
	}
	return out
}

// calmQuantile is the q-quantile latency of the samples that completed in
// the calm windows.
func calmQuantile(samples []sample, ws []window, q float64) time.Duration {
	c := calm(ws)
	var lat []time.Duration
	for _, s := range samples {
		for _, w := range c {
			if !s.end.Before(w.a.t) && s.end.Before(w.b.t) {
				lat = append(lat, s.lat)
				break
			}
		}
	}
	if len(lat) == 0 {
		for _, s := range samples {
			lat = append(lat, s.lat)
		}
	}
	return quantile(sortDurations(lat), q)
}

// calmRates sums the calm windows: operations and requests per second, and
// catalystd CPU per request.
func calmRates(ws []window) (opsPerSec, reqsPerSec float64, cpuPerReq time.Duration) {
	var dt time.Duration
	var ops, reqs int64
	var cpu time.Duration
	for _, w := range calm(ws) {
		dt += w.b.t.Sub(w.a.t)
		ops += w.b.ops - w.a.ops
		reqs += w.b.reqs - w.a.reqs
		cpu += w.b.proc.cpu - w.a.proc.cpu
	}
	if reqs == 0 {
		return 0, 0, 0
	}
	return float64(ops) / dt.Seconds(), float64(reqs) / dt.Seconds(), cpu / time.Duration(reqs)
}

// openLoop runs rate*dur operations, the i-th due at start + i/rate, on
// workers goroutines. Each operation is timed from when it was due, so a
// stall also delays every operation queued behind it.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int, op func(i int) error) *phase {
	n := int(rate * dur.Seconds())
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	parts := make([]phase, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				err := op(i)
				lat := time.Since(due)
				p.attempted++
				if err != nil {
					p.failed++
					lat = failedLatency
				}
				p.lat = append(p.lat, sample{end: time.Now(), lat: lat})
				p.lag = append(p.lag, sent.Sub(due))
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phase{}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// sleepUntil blocks until t. time.Sleep wakes through the runtime's
// poller, about a millisecond late on Linux; every open-loop request would
// carry that lateness in its latency. nanosleep(2) wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// closedLoop runs operations back to back on workers goroutines for dur;
// operation indices continue from first. out.ok counts completed
// operations while the phase runs, for the window sampler.
func closedLoop(ctx context.Context, dur time.Duration, workers, first int, out *phase, op func(i int) error) {
	start := time.Now()
	deadline := start.Add(dur)
	next := atomic.Int64{}
	next.Store(int64(first))
	parts := make([]phase, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := op(i)
				lat := time.Since(t0)
				p.attempted++
				if err != nil {
					p.failed++
					lat = failedLatency
				} else {
					out.ok.Add(1)
				}
				p.lat = append(p.lat, sample{end: time.Now(), lat: lat})
			}
		}(&parts[w])
	}
	wg.Wait()
	for i := range parts {
		out.merge(&parts[i])
	}
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newTransport is the load generator's HTTP transport: at most conns connections to
// the daemon, every dial counted.
func newTransport(conns int, dials *atomic.Int64) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:       conns,
		MaxIdleConnsPerHost:   conns,
		MaxIdleConns:          conns,
		DisableCompression:    true,
		ResponseHeaderTimeout: 10 * time.Second,
	}
}
