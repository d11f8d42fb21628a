package decorate

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/delta"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
	"cachecatalyst/internal/telemetry"
)

// Respond finishes a decorated serve once the entry has put its map (or
// no map) in w's headers: it retains the body as a delta base, sets the
// Etag, refreshes the stale copy, then answers 304 when the request's
// validators match, else the body — or a CCD1 patch against the client's
// named X-Delta-Base when that is smaller. lastModified, when non-zero,
// lets If-Modified-Since answer where If-None-Match is absent. enc is the
// map encoding sent ("" for none), recorded with the stale copy.
func (s *Stores) Respond(ctx context.Context, w http.ResponseWriter, r *http.Request, pageURL string, ent *Entry, enc string, lastModified time.Time) (status, n int) {
	base, from := s.deltaBase(r, pageURL, ent)
	h := w.Header()
	h["Etag"] = ent.etagHdr
	s.recordStale(pageURL, ent, enc, h)
	if NotModified(r, ent.tag, lastModified) {
		s.decide(ctx, h, "etag-match", pageURL)
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified, 0
	}
	body, clen := ent.body, ent.clenHdr
	if base != nil {
		// A validator match above wins over a patch (the 304 transfers
		// nothing at all); here the entity changed, so diff lazily and
		// serve the patch only when it actually saves bytes.
		if patch := delta.Diff(base, body); len(patch) < len(body) {
			s.deltasServed.Add(1)
			s.deltaBytesSaved.Add(int64(len(body) - len(patch)))
			h.Set(delta.FromHeader, from)
			s.decide(ctx, h, "delta", pageURL)
			body, clen = patch, nil
		}
	}
	s.decide(ctx, h, "network", pageURL)
	if clen != nil {
		h["Content-Length"] = clen
	} else {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return http.StatusOK, 0
	}
	n, _ = w.Write(body)
	return http.StatusOK, n
}

// decide records one decision on the request trace and, with
// Options.ServerTiming, in the response's Server-Timing header.
func (s *Stores) decide(ctx context.Context, h http.Header, name, detail string) {
	telemetry.Event(ctx, name, detail)
	if s.opts.ServerTiming {
		telemetry.AppendServerTiming(h, name)
	}
}

// NotModified evaluates r's conditional headers against a validator per
// RFC 9110 §13.2.2 precedence: If-None-Match wins when present;
// If-Modified-Since is consulted otherwise, and only when lastModified is
// known.
func NotModified(r *http.Request, tag etag.Tag, lastModified time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		return !etag.NoneMatch(inm, tag)
	}
	ims := r.Header.Get("If-Modified-Since")
	if ims == "" || lastModified.IsZero() {
		return false
	}
	t, ok := headers.ParseHTTPDate(ims)
	if !ok {
		return false
	}
	// HTTP dates have second granularity; truncate before comparing.
	return !lastModified.Truncate(time.Second).After(t)
}

// deltaBase retains ent's body as a diff base (the lock-free Get doubles
// as the promotion that keeps a hot base resident) and returns the body r
// names in X-Delta-Base, if that is another version still retained.
func (s *Stores) deltaBase(r *http.Request, pageURL string, ent *Entry) (base []byte, from string) {
	if s.deltaBases == nil {
		return nil, ""
	}
	if _, ok := s.deltaBases.Get(ent.deltaKey); !ok {
		s.deltaBases.Put(ent.deltaKey, ent.body)
	}
	baseTag := r.Header.Get(delta.RequestHeader)
	if baseTag == "" || baseTag == ent.TagStr {
		return nil, ""
	}
	if base, ok := s.deltaBases.Get(pageURL + "\x00" + baseTag); ok {
		return base, baseTag
	}
	return nil, ""
}

// StaleCopy is the last-known-good decorated serve of one page: everything
// needed to answer without the origin.
type StaleCopy struct {
	Body  []byte
	Tag   etag.Tag
	Enc   string // last X-Etag-Config encoding; possibly outdated, still valid tags at serve time
	CType string
	At    time.Time
}

func staleCopySize(key string, e *StaleCopy) int64 {
	return int64(len(key) + len(e.Body) + len(e.Enc) + len(e.CType) + 96)
}

// Stale returns the unexpired stale copy of pageURL, if any.
func (s *Stores) Stale(pageURL string) (*StaleCopy, bool) {
	if s.stales == nil {
		return nil, false
	}
	e, ok := s.stales.Get(pageURL)
	if !ok || time.Since(e.At) > s.staleTTL {
		return nil, false
	}
	return e, true
}

// recordStale refreshes pageURL's stale copy, served with h's
// Content-Type. The hot path skips the write while the existing copy still
// matches and is young; a quarter of the stale TTL bounds how outdated its
// timestamp may run.
func (s *Stores) recordStale(pageURL string, ent *Entry, enc string, h http.Header) {
	if s.stales == nil {
		return
	}
	now := time.Now()
	if prev, ok := s.stales.Peek(pageURL); ok &&
		prev.Tag == ent.tag && prev.Enc == enc && now.Sub(prev.At) < s.staleTTL/4 {
		return
	}
	s.stales.Put(pageURL, &StaleCopy{Body: ent.body, Tag: ent.tag, Enc: enc, CType: h.Get("Content-Type"), At: now})
}

// The worker script never changes within one build, so everything serving
// it derives from is computed once at startup.
var (
	workerTag      = etag.ForBytes([]byte(core.ServiceWorkerScript))
	workerBody     = []byte(core.ServiceWorkerScript)
	workerEtagHdr  = []string{workerTag.String()}
	workerCTypeHdr = []string{"text/javascript; charset=utf-8"}
	workerCacheHdr = []string{"no-cache"}
)

// ServeWorkerScript answers a GET or HEAD of core.ServiceWorkerPath. The
// script is marked no-cache so browsers revalidate it, keeping deployed
// worker logic updatable, and those revalidations are answered 304 while
// the script is unchanged — which, within one build, it always is.
func ServeWorkerScript(w http.ResponseWriter, r *http.Request) (status, n int) {
	h := w.Header()
	h["Content-Type"] = workerCTypeHdr
	h["Cache-Control"] = workerCacheHdr
	h["Etag"] = workerEtagHdr
	if !etag.NoneMatch(r.Header.Get("If-None-Match"), workerTag) {
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified, 0
	}
	if r.Method == http.MethodHead {
		return http.StatusOK, 0
	}
	n, _ = w.Write(workerBody)
	return http.StatusOK, n
}

// maxPreloadHints caps the preload links one response carries; past a few
// dozen the hints themselves delay the HTML they are racing.
const maxPreloadHints = 32

// AddPreloadLinks adds a "Link: <url>; rel=preload; as=..." header for
// each of the first maxPreloadHints refs — the content of a 103 Early
// Hints response. Reports whether any was added.
func AddPreloadLinks(h http.Header, refs []core.Ref) bool {
	for i, ref := range refs {
		if i == maxPreloadHints {
			break
		}
		as := "image"
		if ref.CSS {
			as = "style"
		}
		h.Add("Link", "<"+ref.Key+">; rel=preload; as="+as)
	}
	return len(refs) > 0
}

// CapMapBytes drops entries from m, highest-sorting paths first (the
// reverse of the canonical encode order), until m.Encode() fits max bytes,
// and returns how many it dropped. Each entry's encoded size is measured
// once and the total tracked while dropping, so trimming is O(n) rather
// than a re-encode per dropped entry. max <= 0 means no limit.
func CapMapBytes(m core.ETagMap, max int) (dropped int) {
	if max <= 0 || len(m) == 0 {
		return 0
	}
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// Mirror ETagMap.Encode: '{' + comma-joined `"path":"tag"` + '}'.
	sizes := make([]int, len(paths))
	total := 2 + len(paths) - 1 // braces and commas
	for i, p := range paths {
		sizes[i] = core.JSONStringLen(p) + 1 + core.JSONStringLen(m[p].String())
		total += sizes[i]
	}
	for i := len(paths) - 1; i >= 0 && total > max; i-- {
		total -= sizes[i]
		if i > 0 {
			total-- // the comma that preceded this entry
		}
		delete(m, paths[i])
		dropped++
	}
	return dropped
}
