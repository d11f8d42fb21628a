// Package core implements the paper's contribution: proactive delivery of
// validation tokens ("CacheCatalyst").
//
// Server side, BuildMap performs the modified-Caddy behaviour of §3: when a
// base HTML file is about to be served, traverse its DOM, extract every
// same-origin resource link (recursing into same-origin stylesheets, since
// CSS pulls in further resources), look up the current ETag of each, and
// emit a link→ETag map. The map travels in the X-Etag-Config response
// header.
//
// Client side, Decide implements the Service Worker's per-request choice:
// serve from cache with zero round trips when the cached ETag equals the
// proactively delivered one, otherwise fetch from the origin.
package core

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"unicode/utf8"

	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/etag"
)

// HeaderName is the response header that carries the ETag map, as named in
// the paper.
const HeaderName = "X-Etag-Config"

// ServiceWorkerPath is the well-known path the server registers the
// CacheCatalyst Service Worker under.
const ServiceWorkerPath = "/cc-sw.js"

// ETagMap maps same-origin resource paths (absolute, origin-relative) to
// their current entity tags.
type ETagMap map[string]etag.Tag

// Get returns the tag for path and whether the map covers it.
func (m ETagMap) Get(path string) (etag.Tag, bool) {
	t, ok := m[path]
	return t, ok
}

// Encode serializes the map to its wire form: a compact JSON object with
// sorted keys, values in entity-tag wire syntax. JSON keeps the header
// parseable by the JavaScript Service Worker in the real deployment, and
// sorting keeps the encoding canonical for tests and size accounting.
func (m ETagMap) Encode() string {
	paths := make([]string, 0, len(m))
	size := 2 // braces
	for p := range m {
		paths = append(paths, p)
		// Quotes, colon, comma, and the tag's own quoting; escaped
		// strings may exceed this, which only costs one regrow.
		size += len(p) + len(m[p].Opaque) + 12
	}
	sort.Strings(paths)
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, p := range paths {
		if i > 0 {
			b.WriteByte(',')
		}
		writeJSONString(&b, p)
		b.WriteByte(':')
		writeJSONString(&b, m[p].String())
	}
	b.WriteByte('}')
	return b.String()
}

// writeJSONString appends s as a JSON string literal, byte-identical to
// json.Marshal's default (HTML-escaping) output. ASCII — including the
// quotes every entity-tag wire form carries — is escaped inline; only
// non-ASCII input defers to encoding/json, which owns the subtle cases
// (U+2028/U+2029 line separators, invalid UTF-8) so the encoding stays
// canonical.
// jsonSafe marks the ASCII bytes that pass through a JSON string literal
// unescaped under json.Marshal's defaults: printable, and none of the JSON
// or HTML-sensitive metacharacters.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

func writeJSONString(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			enc, _ := json.Marshal(s) // strings always marshal
			b.Write(enc)
			return
		}
	}
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonSafe[c] {
			continue
		}
		b.WriteString(s[start:i])
		switch c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default: // <, >, & (HTML escaping) and control bytes
			const hex = "0123456789abcdef"
			b.WriteString(`\u00`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
		start = i + 1
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// JSONStringLen is the length of s as Encode writes it — quotes and
// escapes included — without building it, for callers sizing a map's
// encoding entry by entry.
func JSONStringLen(s string) int {
	n := 2
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			enc, _ := json.Marshal(s)
			return len(enc)
		case jsonSafe[c]:
			n++
		case c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t':
			n += 2
		default:
			n += 6 // \u00XX
		}
	}
	return n
}

// WireSize returns the byte cost of carrying the encoded map in a response
// header, including the header name, separator and CRLF. The evaluation
// charges this against the base-HTML transfer: proactive tokens are not
// free, and the honesty of Figure 3 depends on counting them.
func (m ETagMap) WireSize() int {
	return WireSizeOf(m.Encode())
}

// WireSizeOf is WireSize for a map already in wire form, so a caller that
// just called Encode does not pay for a second full encoding.
func WireSizeOf(encoded string) int {
	return len(HeaderName) + len(": ") + len(encoded) + len("\r\n")
}

// MaxEncodedMapBytes bounds the header value DecodeMap will touch. A
// legitimate map for even a thousand-resource page encodes well under
// 100 KB; anything larger is hostile or corrupt, and parsing it would let
// one bad response burn client CPU and memory.
const MaxEncodedMapBytes = 1 << 20

// DecodeMap parses the wire form produced by Encode. Unknown or malformed
// entries are skipped rather than failing the whole map, so one bad tag
// cannot disable caching for a page; oversized or structurally invalid
// input is rejected with an error (callers treat that like an absent
// header). DecodeMap never panics, whatever the input — the client's whole
// fault tolerance rests on that.
func DecodeMap(s string) (ETagMap, error) {
	if len(s) > MaxEncodedMapBytes {
		return nil, fmt.Errorf("etag map: %d bytes exceeds limit %d", len(s), MaxEncodedMapBytes)
	}
	if strings.TrimSpace(s) == "" {
		return ETagMap{}, nil
	}
	var raw map[string]string
	if err := json.Unmarshal([]byte(s), &raw); err != nil {
		return nil, fmt.Errorf("etag map: %w", err)
	}
	m := make(ETagMap, len(raw))
	for p, v := range raw {
		if t, ok := etag.Parse(v); ok {
			m[p] = t
		}
	}
	return m, nil
}

// Resolver supplies the server-side facts BuildMap needs about the site
// being served.
type Resolver interface {
	// ETagFor returns the current entity tag for the resource at an
	// origin-relative path, and whether the resource exists.
	ETagFor(path string) (etag.Tag, bool)
	// StylesheetBody returns the content of a same-origin stylesheet for
	// recursive link extraction, and whether it exists (and is CSS).
	StylesheetBody(path string) (string, bool)
}

// BuildOptions tunes BuildMap.
type BuildOptions struct {
	// MaxEntries caps the map size; 0 means unlimited. Pages with
	// thousands of resources would otherwise produce unbounded headers.
	MaxEntries int
	// MaxCSSDepth bounds recursion through @import chains. Zero selects
	// a default of 5, enough for real-world nesting while terminating on
	// import cycles.
	MaxCSSDepth int
	// CrossOriginETag, when set, resolves third-party resources: given an
	// absolute URL it returns the resource's current entity tag. This is
	// the paper's §6 second future-work item — "the main server fetches
	// those resources itself and obtains their ETags". Cross-origin
	// entries are keyed in the map by their absolute URL. When nil,
	// cross-origin references are skipped, matching the preliminary
	// implementation.
	CrossOriginETag func(absURL string) (etag.Tag, bool)
	// Concurrency bounds the worker fan-out of the resolve phase: up to
	// this many references are resolved at once, so a cold page with N
	// subresources costs roughly its slowest probe instead of the sum of
	// all of them. Values below 2 resolve sequentially, which is also the
	// default — a Resolver must be safe for concurrent use before a
	// caller opts in.
	Concurrency int
}

const defaultMaxCSSDepth = 5

// BuildMap inspects a base HTML document and produces the ETag map for its
// same-origin subresources, recursing into same-origin stylesheets. pageURL
// is the origin-relative URL of the document (used to resolve relative
// links); cross-origin references are skipped, exactly as the preliminary
// implementation in the paper does.
//
// BuildMap is the one-shot composition of the two phases in twophase.go;
// callers that can reuse extraction across requests (the middleware's
// rendered-page cache, the server's page-render cache) call ExtractPageRefs
// and ResolveRefs separately.
func BuildMap(pageURL string, htmlBody string, res Resolver, opts BuildOptions) ETagMap {
	return ResolveRefs(ExtractPageRefs(pageURL, htmlBody), res, opts)
}

// CrossOriginKey is the canonical map key for a third-party resource.
func CrossOriginKey(host, escapedPath, rawQuery string) string {
	if escapedPath == "" {
		escapedPath = "/"
	}
	key := "https://" + host + escapedPath
	if rawQuery != "" {
		key += "?" + rawQuery
	}
	return key
}

// resolveSameOrigin resolves ref against base and returns the
// origin-relative path (with query), or ok=false for cross-origin or
// non-fetchable references.
func resolveSameOrigin(base *url.URL, ref string) (string, bool) {
	if !cssparse.IsFetchable(ref) {
		return "", false
	}
	u, err := url.Parse(strings.TrimSpace(ref))
	if err != nil {
		return "", false
	}
	resolved := base.ResolveReference(u)
	if resolved.Host != "" && resolved.Host != base.Host {
		return "", false // cross-origin: deferred to future work in the paper
	}
	if resolved.Scheme != "" && resolved.Scheme != "http" && resolved.Scheme != "https" {
		return "", false
	}
	path := resolved.EscapedPath()
	if path == "" {
		path = "/"
	}
	if resolved.RawQuery != "" {
		path += "?" + resolved.RawQuery
	}
	return path, true
}

// Decision is the Service Worker's verdict for one request.
type Decision int

// Decisions.
const (
	// FetchFromNetwork: no usable cached copy (miss, or the proactive tag
	// differs, or the map does not cover the resource and we cannot prove
	// freshness) — forward the request to the origin.
	FetchFromNetwork Decision = iota
	// ServeFromCache: cached copy proven current by the proactive token —
	// respond locally with zero network round trips.
	ServeFromCache
)

func (d Decision) String() string {
	if d == ServeFromCache {
		return "serve-from-cache"
	}
	return "fetch-from-network"
}

// Decide implements the client-side algorithm of §3: compare the entity tag
// of the cached copy (zero Tag when there is no cached copy) with the
// proactively delivered map entry for the resource.
//
// The conservative default matters: if the map does not cover the path —
// e.g. a JS-discovered resource the server's static extraction missed — the
// Service Worker forwards the request, preserving correctness at the cost
// of the round trip the paper's future work wants to eliminate.
func Decide(m ETagMap, path string, cached etag.Tag) Decision {
	current, covered := m.Get(path)
	if !covered || cached.IsZero() {
		return FetchFromNetwork
	}
	if etag.StrongMatch(cached, current) || etag.WeakMatch(cached, current) && current.Weak {
		return ServeFromCache
	}
	return FetchFromNetwork
}
