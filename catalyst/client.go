package catalyst

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
)

// ClientOptions tunes the client's resilience behaviour. The zero value
// preserves the historical semantics: no timeout, no retries, errors
// surface immediately.
type ClientOptions struct {
	// Timeout bounds one Get end to end — connection, all retry
	// attempts, backoff sleeps and body reads together. When the budget
	// expires the call returns promptly with a timeout error (or a stale
	// cached copy, when StaleIfError allows one). Zero means no timeout.
	Timeout time.Duration
	// MaxRetries is how many times a transient failure (transport error
	// or 5xx response) is re-attempted. Zero means a single attempt.
	MaxRetries int
	// BackoffBase is the first retry delay; attempt n waits
	// min(2ⁿ·BackoffBase, BackoffMax) plus deterministic jitter derived
	// from the URL, so a fleet of clients retrying the same origin does
	// not thunder in lockstep yet tests replay exactly. Zero selects
	// 50 ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential growth. Zero selects 2 s.
	BackoffMax time.Duration
	// StaleIfError serves a cached copy — flagged Source "stale" — when
	// the network fails (transport error, timeout, or 5xx after
	// retries) and an entry for the URL exists. The RFC 5861 trade:
	// possibly-outdated content beats an error page.
	StaleIfError bool
	// MaxCacheBytes bounds the response cache's body bytes; the active
	// cache policy chooses the victims. Zero means unbounded,
	// preserving the historical behaviour.
	MaxCacheBytes int64
	// CachePolicy selects the response cache's eviction/admission
	// policy. The zero value is exact global LRU; size-aware policies
	// (GDSF, TinyLFU admission) matter once MaxCacheBytes constrains a
	// mixed-size response population. The per-origin map store always
	// stays LRU — maps are uniform-cost and recency-driven.
	CachePolicy cachestore.Policy
	// Telemetry is the registry the client's counters, its two cache
	// stores' counters and a per-Get latency histogram live in, under
	// "client.*". Nil selects a private registry, readable through
	// Client.Telemetry.
	Telemetry *telemetry.Registry
}

func (o ClientOptions) backoffBase() time.Duration {
	if o.BackoffBase > 0 {
		return o.BackoffBase
	}
	return 50 * time.Millisecond
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax > 0 {
		return o.BackoffMax
	}
	return 2 * time.Second
}

// Client is a CacheCatalyst-aware HTTP client for Go programs — the
// non-browser counterpart of the Service Worker. Crawlers, monitors and
// scrapers that revisit pages benefit the same way browsers do: after a
// page fetch delivers the X-Etag-Config map, any cached subresource whose
// entity tag matches is returned locally with zero network round trips,
// and anything else is fetched (conditionally when possible) and
// re-cached.
//
// Both the per-origin map store and the response cache sit on
// internal/cachestore's sharded LRU store, so a Client is safe for — and
// scales under — concurrent use.
type Client struct {
	// HTTP performs the actual requests; nil means http.DefaultClient.
	HTTP *http.Client

	opts ClientOptions

	maps  *cachestore.Store[ETagMap]         // per origin ("scheme://host")
	cache *cachestore.Store[*cachedResponse] // per absolute resource

	// The client's counters, held by the registry.
	localHits      *telemetry.Counter // zero-round-trip serves, proven current by the map
	networkFetches *telemetry.Counter
	revalidations  *telemetry.Counter
	retries        *telemetry.Counter // re-attempts after transient failures
	timeouts       *telemetry.Counter // Gets that exhausted their time budget
	staleServes    *telemetry.Counter // Source "stale" answers after a network failure
	netErrors      *telemetry.Counter // Gets whose final attempt failed, before any stale fallback
	getNS          *telemetry.Histogram
}

type cachedResponse struct {
	status int
	header http.Header
	body   []byte
}

// size is the entry's accounting size for the cache byte budget.
func (c *cachedResponse) size() int64 {
	n := int64(len(c.body))
	for k, vs := range c.header {
		n += int64(len(k))
		for _, v := range vs {
			n += int64(len(v))
		}
	}
	return n
}

// response builds a caller-owned copy of the entry.
func (c *cachedResponse) response(source string) *ClientResponse {
	return &ClientResponse{
		StatusCode: c.status,
		Header:     c.header.Clone(),
		Body:       append([]byte(nil), c.body...),
		Source:     source,
	}
}

// ClientResponse is a completed (possibly cache-served) exchange.
type ClientResponse struct {
	StatusCode int
	Header     http.Header
	Body       []byte
	// Source tells where the body came from: "network", "cache"
	// (zero round trips, proven current by the proactive map),
	// "revalidated" (a conditional request answered 304), or "stale"
	// (the network failed and StaleIfError served the cached copy).
	Source string
}

// NewClient returns an empty-cache client over hc with zero-value options
// (no timeout, no retries).
func NewClient(hc *http.Client) *Client {
	return NewClientWithOptions(hc, ClientOptions{})
}

// NewClientWithOptions returns an empty-cache client over hc with the
// given resilience options.
func NewClientWithOptions(hc *http.Client, opts ClientOptions) *Client {
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	reg := opts.Telemetry
	return &Client{
		HTTP: hc,
		opts: opts,
		maps: cachestore.New[ETagMap](cachestore.Options[ETagMap]{
			Shards:    4,
			Telemetry: reg,
			Name:      "client.maps",
		}),
		cache: cachestore.New[*cachedResponse](cachestore.Options[*cachedResponse]{
			MaxBytes:  opts.MaxCacheBytes,
			SizeOf:    func(_ string, r *cachedResponse) int64 { return r.size() },
			Policy:    opts.CachePolicy,
			Telemetry: reg,
			Name:      "client.cache",
		}),
		localHits:      reg.Counter("client.local_hits"),
		networkFetches: reg.Counter("client.network_fetches"),
		revalidations:  reg.Counter("client.revalidations"),
		retries:        reg.Counter("client.retries"),
		timeouts:       reg.Counter("client.timeouts"),
		staleServes:    reg.Counter("client.stale_serves"),
		netErrors:      reg.Counter("client.net_errors"),
		getNS:          reg.Histogram("client.get_ns"),
	}
}

// Telemetry returns the registry holding the client's instruments.
func (c *Client) Telemetry() *telemetry.Registry { return c.opts.Telemetry }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Get fetches rawURL with CacheCatalyst semantics. HTML responses refresh
// the origin's ETag map; subresources covered by a current map entry are
// served from the local cache without touching the network. Transient
// network failures are retried per ClientOptions, and — with StaleIfError —
// answered from cache with Source "stale" as a last resort.
func (c *Client) Get(rawURL string) (*ClientResponse, error) {
	return c.GetContext(context.Background(), rawURL)
}

// GetContext is Get with a caller context: cancellation bounds the whole
// exchange (ClientOptions.Timeout tightens it further, never loosens it),
// and a request trace carried by ctx receives the cache decision —
// "etag-match" for a map-proven local hit, "revalidate", "network",
// "stale-serve" — plus a "client.get" span.
func (c *Client) GetContext(ctx context.Context, rawURL string) (*ClientResponse, error) {
	defer c.getNS.ObserveSince(time.Now())
	ctx, endSpan := telemetry.StartSpan(ctx, "client.get")
	defer endSpan()

	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("catalyst client: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("catalyst client: URL %q must be absolute", rawURL)
	}
	originKey := u.Scheme + "://" + u.Host
	cacheKey := originKey + resourceKey(u)

	// Serve locally when the proactive token proves the copy current.
	// Cached entries are shared between goroutines and never mutated;
	// response() hands the caller a private copy.
	var cachedTag string
	var revalidating *cachedResponse // pinned: survives mid-flight eviction
	m, _ := c.maps.Get(originKey)
	if cached, ok := c.cache.Get(cacheKey); ok {
		revalidating = cached
		cachedTag = cached.header.Get("Etag")
		if m != nil && cachedTag != "" {
			if tag, ok := etag.Parse(cachedTag); ok &&
				core.Decide(m, resourceKey(u), tag) == core.ServeFromCache {
				c.localHits.Add(1)
				telemetry.Event(ctx, "etag-match", rawURL)
				return cached.response("cache"), nil
			}
		}
	}

	if c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}

	if cachedTag != "" {
		telemetry.Event(ctx, "revalidate", rawURL)
	}
	httpResp, body, err := c.fetchWithRetries(ctx, rawURL, cachedTag)
	if err != nil {
		c.netErrors.Add(1)
		if ctx.Err() != nil {
			c.timeouts.Add(1)
		}
		if c.opts.StaleIfError {
			if cached, ok := c.cache.Get(cacheKey); ok {
				c.staleServes.Add(1)
				telemetry.Event(ctx, "stale-serve", rawURL)
				return cached.response("stale"), nil
			}
		}
		return nil, fmt.Errorf("catalyst client: %w", err)
	}

	c.networkFetches.Add(1)
	telemetry.Event(ctx, "network", rawURL)

	// HTML responses (and their 304s) carry a fresh map for the origin.
	if cfg := httpResp.Header.Get(HeaderName); cfg != "" {
		if newMap, err := core.DecodeMap(cfg); err == nil {
			c.maps.Put(originKey, newMap)
		}
	}

	if httpResp.StatusCode == http.StatusNotModified {
		// Prefer the live entry, but fall back to the one we validated
		// against: a bounded cache may have evicted it while the request
		// was in flight, and entries are immutable so the pinned copy is
		// still good.
		cached, ok := c.cache.Get(cacheKey)
		if !ok {
			cached, ok = revalidating, revalidating != nil
		}
		if ok {
			c.revalidations.Add(1)
			// Merge refreshed headers per RFC 9111 §4.3.4 — into a fresh
			// entry, never mutating the shared one in place.
			merged := cached.header.Clone()
			for k, vs := range httpResp.Header {
				if k == "Content-Length" {
					continue
				}
				merged[k] = append([]string(nil), vs...)
			}
			fresh := &cachedResponse{status: cached.status, header: merged, body: cached.body}
			c.cache.Put(cacheKey, fresh)
			return fresh.response("revalidated"), nil
		}
		// No pinned entry either (Clear raced the whole exchange):
		// surface the 304.
	}

	out := &ClientResponse{
		StatusCode: httpResp.StatusCode,
		Header:     httpResp.Header.Clone(),
		Body:       body,
		Source:     "network",
	}
	if httpResp.StatusCode == http.StatusOK && !strings.Contains(httpResp.Header.Get("Cache-Control"), "no-store") {
		c.cache.Put(cacheKey, &cachedResponse{
			status: httpResp.StatusCode,
			header: httpResp.Header.Clone(),
			body:   append([]byte(nil), body...),
		})
	}
	return out, nil
}

// fetchWithRetries performs the network exchange with capped exponential
// backoff. It retries transport errors and 5xx responses; anything else —
// including 4xx — is a definitive answer. The returned body is fully read
// and the response closed.
func (c *Client) fetchWithRetries(ctx context.Context, rawURL, cachedTag string) (*http.Response, []byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
		if err != nil {
			return nil, nil, err
		}
		if cachedTag != "" {
			req.Header.Set("If-None-Match", cachedTag)
		}
		httpResp, err := c.httpClient().Do(req)
		if err == nil {
			var body []byte
			body, err = io.ReadAll(httpResp.Body)
			httpResp.Body.Close()
			if err == nil {
				if httpResp.StatusCode < 500 {
					return httpResp, body, nil
				}
				err = fmt.Errorf("origin answered %d", httpResp.StatusCode)
			}
		}
		lastErr = err
		if attempt >= c.opts.MaxRetries || ctx.Err() != nil {
			return nil, nil, lastErr
		}
		c.retries.Add(1)
		if err := sleepCtx(ctx, c.backoff(rawURL, attempt)); err != nil {
			return nil, nil, lastErr
		}
	}
}

// backoff computes the delay before re-attempt number attempt:
// min(2ᵃᵗᵗᵉᵐᵖᵗ·base, max), plus up to 50 % deterministic jitter keyed on
// (URL, attempt) — spread between clients, reproducible within one.
func (c *Client) backoff(rawURL string, attempt int) time.Duration {
	d := c.opts.backoffBase() << uint(attempt)
	if maxd := c.opts.backoffMax(); d > maxd || d <= 0 {
		d = maxd
	}
	h := fnv.New64a()
	io.WriteString(h, rawURL)
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d/2 + jitter
}

// sleepCtx waits for d or the context's cancellation, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Clear drops all cached responses and maps.
func (c *Client) Clear() {
	c.maps.Clear()
	c.cache.Clear()
}

// resourceKey is the origin-relative key used both in the cache and in the
// server's map (path plus query).
func resourceKey(u *url.URL) string {
	p := u.EscapedPath()
	if p == "" {
		p = "/"
	}
	if u.RawQuery != "" {
		p += "?" + u.RawQuery
	}
	return p
}
