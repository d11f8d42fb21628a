// Package decorate is the CacheCatalyst decoration pipeline: everything
// done to a 200 HTML entity once it is in hand — the render (extract,
// inject, re-tag), the rendered-page cache and its hot index, encoding
// reuse and X-Etag-Config sizing, delta bases and the choice of patch, the
// last-good stale copy, the conditional answer, the worker-script response
// and the preload-link list.
//
// Two entries feed it. internal/server decorates its stored Content
// exactly: its resolver reads Content, so maps are never reused across
// requests. catalyst.Middleware decorates a remote inner handler's
// buffered response: its resolver is a TTL-bounded probe cache, and a
// probe generation stamp lets an unchanged page reuse its last encoding.
// Everything else — the stores below and what Respond writes — is one
// code path.
package decorate

import (
	"bytes"
	"crypto/sha256"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/tenant"
)

// maxDeltaBytes bounds the retained delta bases, maxStaleBytes the stale
// copies (before any tenant budget narrows them).
const (
	maxDeltaBytes = 8 << 20
	maxStaleBytes = 8 << 20
)

// Options configures the stores of one entry into the pipeline.
type Options struct {
	// Name prefixes the default stores' registry names: Name+".renders",
	// ".hot", ".stales" and ".delta_bases".
	Name string
	// MaxRenderBytes bounds the rendered-page cache (and the hot index).
	// Zero selects 16 MiB; negative disables both, so every serve pays
	// the full extract → inject → hash pipeline.
	MaxRenderBytes int64
	// HotIndex puts HotRender's per-URL memcmp shortcut in front of the
	// render cache, for entries whose render key is a body hash.
	HotIndex bool
	// StaleFor, when positive, keeps the last decorated copy of each page
	// for that long (Stale); zero keeps none.
	StaleFor time.Duration
	// Delta retains served bodies as diff bases for X-Delta-Base requests.
	Delta bool
	// Policy is every store's eviction and admission policy.
	Policy    cachestore.Policy
	Telemetry *telemetry.Registry
	// ServerTiming mirrors Respond's decisions into Server-Timing.
	ServerTiming bool
	// The entry's counters; nil ones are not counted.
	RendersEvicted  *telemetry.Counter
	DeltasServed    *telemetry.Counter
	DeltaBytesSaved *telemetry.Counter
}

// Stores is one namespace of the pipeline's caches: the entry's default
// state, or one tenant's slice of it (Tenant).
type Stores struct {
	opts    *Options
	renders *cachestore.Store[*Entry] // nil when disabled
	// hot maps page URL → most recent (raw body, render) pair; nil unless
	// Options.HotIndex and the render cache is on.
	hot        *cachestore.Store[*hotPage]
	stales     *cachestore.Store[*StaleCopy] // nil when disabled
	deltaBases *cachestore.Store[[]byte]     // pageURL NUL validator → body; nil unless Delta
	staleTTL   time.Duration
}

// New builds the default stores for one entry.
func New(opts Options) *Stores {
	if opts.MaxRenderBytes == 0 {
		opts.MaxRenderBytes = 16 << 20
	}
	var nop telemetry.Counter
	for _, c := range []**telemetry.Counter{&opts.RendersEvicted, &opts.DeltasServed, &opts.DeltaBytesSaved} {
		if *c == nil {
			*c = &nop
		}
	}
	s := &Stores{opts: &opts, staleTTL: opts.StaleFor}
	if opts.MaxRenderBytes > 0 {
		s.renders = cachestore.New[*Entry](cachestore.Options[*Entry]{
			MaxBytes:  opts.MaxRenderBytes,
			SizeOf:    entrySize,
			Policy:    opts.Policy,
			OnEvict:   func(string, *Entry) { opts.RendersEvicted.Add(1) },
			Telemetry: opts.Telemetry,
			Name:      opts.Name + ".renders",
		})
		if opts.HotIndex {
			// Pinned raw bodies are a subset of what the render cache is
			// willing to spend on injected ones, so they share its budget.
			s.hot = cachestore.New[*hotPage](cachestore.Options[*hotPage]{
				MaxBytes:  opts.MaxRenderBytes,
				SizeOf:    hotPageSize,
				Policy:    opts.Policy,
				Telemetry: opts.Telemetry,
				Name:      opts.Name + ".hot",
			})
		}
	}
	if opts.StaleFor > 0 {
		s.stales = cachestore.New[*StaleCopy](cachestore.Options[*StaleCopy]{
			MaxBytes:  maxStaleBytes,
			SizeOf:    staleCopySize,
			Policy:    opts.Policy,
			Telemetry: opts.Telemetry,
			Name:      opts.Name + ".stales",
		})
	}
	if opts.Delta {
		s.deltaBases = cachestore.New[[]byte](cachestore.Options[[]byte]{
			MaxBytes:  maxDeltaBytes,
			SizeOf:    func(key string, body []byte) int64 { return int64(len(key) + len(body)) },
			Policy:    opts.Policy,
			Telemetry: opts.Telemetry,
			Name:      opts.Name + ".delta_bases",
		})
	}
	return s
}

// Tenant returns t's namespaced view of the default stores s: the same
// configuration, its own bytes and eviction order, registered under
// "tenant.<name>.*". Renders and the hot index get the tenant's whole
// budget; stale copies and delta bases, which hold one body per page, get
// half. The caches are namespaces memoized by name in cachestore, so
// racing callers converge on the same storage; callers memoize the view.
func (s *Stores) Tenant(t *tenant.Tenant) *Stores {
	ns := func(kind string, maxBytes int64) cachestore.NamespaceOptions {
		return cachestore.NamespaceOptions{
			MaxBytes:      maxBytes,
			TelemetryName: "tenant." + t.Name + "." + kind,
			Policy:        t.PolicyOverride(),
		}
	}
	half := t.BudgetBytes / 2
	if t.BudgetBytes < 0 {
		half = -1
	}
	ts := &Stores{opts: s.opts, staleTTL: s.staleTTL}
	if t.StaleFor > 0 {
		ts.staleTTL = t.StaleFor
	}
	if s.renders != nil {
		ts.renders = s.renders.NamespaceWith(t.Name, ns("renders", t.BudgetBytes))
	}
	if s.hot != nil {
		ts.hot = s.hot.NamespaceWith(t.Name, ns("hot", t.BudgetBytes))
	}
	if s.stales != nil && t.StaleFor >= 0 {
		ts.stales = s.stales.NamespaceWith(t.Name, ns("stales", half))
	}
	if s.deltaBases != nil {
		ts.deltaBases = s.deltaBases.NamespaceWith(t.Name, ns("delta_bases", half))
	}
	return ts
}

// Renders returns the rendered-page cache, nil when disabled.
func (s *Stores) Renders() *cachestore.Store[*Entry] { return s.renders }

// Hot returns the hot index, nil when off.
func (s *Stores) Hot() *cachestore.Store[*hotPage] { return s.hot }

// Entry is one render: everything about decorating a page that is a pure
// function of its URL and raw body — the extracted subresource references,
// the snippet-injected body, its validator, and their precomputed header
// values. All but the cached encoding is immutable and shared across
// requests, including the header value slices, which serve paths assign
// into response headers directly (nothing mutates a stored value slice in
// place).
type Entry struct {
	Refs   []core.Ref
	TagStr string // the served entity's validator

	body     []byte // the injected body as served
	tag      etag.Tag
	etagHdr  []string
	clenHdr  []string
	deltaKey string // pageURL NUL TagStr: where body lives as a delta base
	// enc is the most recent map encoding, valid only under the probe
	// generation it was stamped with (see Encoded).
	enc atomic.Pointer[encodedMap]
}

// newEntry renders raw, served at pageURL.
func newEntry(pageURL string, raw []byte) *Entry {
	body := string(raw)
	injected := []byte(core.InjectRegistration(body))
	// The served entity differs from the raw one, so its validator must
	// too; derive it from the bytes actually sent.
	tag := etag.ForBytes(injected)
	tagStr := tag.String()
	return &Entry{
		Refs:     core.ExtractPageRefs(pageURL, body),
		TagStr:   tagStr,
		body:     injected,
		tag:      tag,
		etagHdr:  []string{tagStr},
		clenHdr:  []string{strconv.Itoa(len(injected))},
		deltaKey: pageURL + "\x00" + tagStr,
	}
}

// entrySize charges an entry for what scales — key, body, reference
// strings — plus a fixed allowance for the struct and per-ref bookkeeping.
// The cached encoding mutates after insertion, so it is not charged.
func entrySize(key string, e *Entry) int64 {
	n := int64(len(key) + len(e.body) + 192)
	for _, r := range e.Refs {
		n += int64(len(r.Key)) + 32
	}
	return n
}

// encodedMap is one X-Etag-Config encoding, stamped with the probe
// generation it reflects and the earliest expiry among the probes it was
// assembled from; hdr is it as a shared header value slice.
type encodedMap struct {
	gen     uint64
	expires int64 // unix nanoseconds
	hdr     []string
}

// Encoded returns the encoding cached on e, as a header value slice, if it
// was stamped with gen and has not expired by now. While the generation
// stands and no contributing probe has expired, re-resolving would only
// re-read unchanged probes and re-serialize the identical map.
func (e *Entry) Encoded(gen uint64, now time.Time) ([]string, bool) {
	if m := e.enc.Load(); m != nil && m.gen == gen && now.UnixNano() < m.expires {
		return m.hdr, true
	}
	return nil, false
}

// SetEncoded caches enc on e for serves under gen until expires (unix
// nanoseconds) and returns it as a header value slice.
func (e *Entry) SetEncoded(gen uint64, expires int64, enc string) []string {
	hdr := []string{enc}
	e.enc.Store(&encodedMap{gen: gen, expires: expires, hdr: hdr})
	return hdr
}

// keyPool recycles the scratch buffer Render builds its lookup key in, so
// a warm render hit allocates nothing.
var keyPool = sync.Pool{New: func() any { return new([]byte) }}

// Render returns the memoized render of raw at pageURL, keyed by
// (pageURL, validator). validator must commit to raw — a stored entity
// tag, or a hash of the bytes — so a changed page keys to a new entry and
// a stale render is never served; old ones age out. Concurrent first
// renders of one page collapse into a single extraction.
func (s *Stores) Render(pageURL string, raw []byte, validator string) *Entry {
	if s.renders == nil {
		return newEntry(pageURL, raw)
	}
	bufp := keyPool.Get().(*[]byte)
	key := append((*bufp)[:0], pageURL...)
	key = append(key, 0)
	key = append(key, validator...)
	e, ok := s.renders.GetBytes(key)
	if !ok {
		e, _ = s.renders.GetOrLoad(string(key), func() (*Entry, error) {
			return newEntry(pageURL, raw), nil
		})
	}
	*bufp = key
	keyPool.Put(bufp)
	return e
}

// hotPage pins the most recent render of one page URL with the raw body it
// was computed from.
type hotPage struct {
	raw []byte
	ent *Entry
}

func hotPageSize(key string, p *hotPage) int64 {
	return int64(len(key) + len(p.raw) + 48)
}

// HotRender is Render for a raw body with no validator of its own: the
// key commits to a SHA-256 of raw (16 bytes of it; collision-safe even for
// hostile content). In front of that sits the hot index: a pinned render
// whose raw body memcmp-matches — two orders of magnitude cheaper than the
// hash — is reused with no hashing, locking or allocation. memcmp is
// exact, so correctness never rests on the index. raw may live in a
// pooled buffer; the pin copies it.
func (s *Stores) HotRender(pageURL string, raw []byte) *Entry {
	if s.renders == nil {
		return newEntry(pageURL, raw)
	}
	if s.hot != nil {
		if hp, ok := s.hot.Get(pageURL); ok && bytes.Equal(hp.raw, raw) {
			return hp.ent
		}
	}
	sum := sha256.Sum256(raw)
	ent := s.Render(pageURL, raw, string(sum[:16]))
	if s.hot != nil {
		s.hot.Put(pageURL, &hotPage{raw: bytes.Clone(raw), ent: ent})
	}
	return ent
}
