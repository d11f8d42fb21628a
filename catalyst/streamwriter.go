package catalyst

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"

	"cachecatalyst/internal/decorate"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/headers"
)

// sniffWriter is the middleware's hot-path http.ResponseWriter: it holds
// headers until the inner handler commits a status, then routes by content
// type. 200 text/html responses are buffered for map building and snippet
// injection; everything else is streamed straight through to the client
// with O(1) buffering — the inner handler runs exactly once either way,
// replacing the old record-then-replay scheme that executed it twice per
// non-HTML request.
//
// Because the middleware strips conditional headers from the request it
// hands the inner handler (the full entity is needed for sniffing), the
// writer restores conditional semantics itself on the passthrough path: a
// 200 whose validators match the original request's If-None-Match or
// If-Modified-Since is rewritten to a 304 and its body discarded.
type sniffWriter struct {
	dst http.ResponseWriter
	req *http.Request // original request, with its conditional headers

	// stales is consulted before a >= 500 status is committed to the
	// client: if it holds an unexpired stale copy of stalePage, the
	// writer swallows the error response (headers and
	// body) and marks held instead, so the middleware can substitute the
	// stale copy — the degradation ladder's "serve stale instead of
	// error-proxying" rung. Plain fields rather than a closure: this sits
	// on the hot path of every instrumented request, and a closure would
	// cost an allocation per serve.
	stales    *decorate.Stores
	stalePage string

	header    http.Header
	status    int
	committed bool // WriteHeader decision made
	buffering bool // 200 text/html: capture body for rewriting
	discard   bool // conditional answered 304: drop body writes
	sentToDst bool // headers (and possibly body) reached the client
	hijacked  bool
	held      bool // 5xx swallowed for stale substitution

	buf bytes.Buffer
}

// sniffPool recycles sniffWriters — one per instrumented request, making
// the writer (header map buckets and body buffer included) a steady-state
// zero-allocation cost. Nothing a writer hands out survives the request:
// header value slices are allocated fresh by each handler's Set/Add calls
// (only the map's buckets are reused), and every consumer of the buffered
// body copies it (render interns it as a string, the hot index clones it,
// passthrough writes flush into net/http's own buffers) before release.
var sniffPool = sync.Pool{
	New: func() any { return &sniffWriter{header: make(http.Header)} },
}

func newSniffWriter(dst http.ResponseWriter, req *http.Request) *sniffWriter {
	w := sniffPool.Get().(*sniffWriter)
	w.dst, w.req = dst, req
	return w
}

// release resets the writer and returns it to the pool. Callers must not
// touch the writer afterwards; the middleware releases only after the
// response is fully written and nothing references the buffer.
func (w *sniffWriter) release() {
	w.dst, w.req = nil, nil
	w.stales, w.stalePage = nil, ""
	clear(w.header)
	w.status = 0
	w.committed, w.buffering, w.discard = false, false, false
	w.sentToDst, w.hijacked, w.held = false, false, false
	// One huge page must not pin its buffer in the pool forever; past a
	// megabyte the writer is dropped and the next request allocates fresh.
	if w.buf.Cap() > 1<<20 {
		return
	}
	w.buf.Reset()
	sniffPool.Put(w)
}

func (w *sniffWriter) Header() http.Header { return w.header }

func (w *sniffWriter) WriteHeader(code int) {
	if w.committed || w.hijacked {
		return
	}
	if code < 200 {
		// 1xx informational responses go out immediately and do not
		// commit the final status.
		copyHeader(w.dst.Header(), w.header)
		w.dst.WriteHeader(code)
		w.sentToDst = true
		return
	}
	w.committed = true
	w.status = code

	if code >= http.StatusInternalServerError && w.stales != nil {
		if _, ok := w.stales.Stale(w.stalePage); ok {
			// A stale substitute exists: swallow the error entirely.
			// Nothing reaches the client; the middleware serves the stale
			// copy after the inner handler returns.
			w.held = true
			w.discard = true
			return
		}
	}

	if code == http.StatusOK && isHTML(w.header.Get("Content-Type")) {
		w.buffering = true
		// Pre-size from the declared length so a page written in many
		// small chunks costs one allocation, not a regrow cascade. The
		// declaration is advisory (and possibly hostile), so it is capped
		// and the buffer still grows past it if the handler lied.
		// The empty-string check matters: strconv.Atoi("") allocates its
		// error, and most handlers don't declare a length.
		if cl := w.header.Get("Content-Length"); cl != "" {
			if n, err := strconv.Atoi(cl); err == nil && n > 0 {
				const maxPrealloc = 1 << 20
				if n > maxPrealloc {
					n = maxPrealloc
				}
				w.buf.Grow(n)
			}
		}
		return
	}

	// Passthrough. Restore the conditional semantics the middleware
	// stripped from the inner request.
	if code == http.StatusOK && w.notModified() {
		h := w.dst.Header()
		copyHeader(h, w.header)
		h.Del("Content-Length")
		w.dst.WriteHeader(http.StatusNotModified)
		w.sentToDst = true
		w.discard = true
		return
	}
	copyHeader(w.dst.Header(), w.header)
	w.dst.WriteHeader(code)
	w.sentToDst = true
	// The inner handler answered a HEAD as the GET it was given (see
	// innerRequest); the client gets the head only.
	w.discard = w.req.Method == http.MethodHead
}

// notModified evaluates the original request's conditionals against the
// response headers the inner handler produced, per RFC 9110 §13:
// If-None-Match against the ETag (weak comparison), else If-Modified-Since
// against Last-Modified.
func (w *sniffWriter) notModified() bool {
	if inm := w.req.Header.Get("If-None-Match"); inm != "" {
		t, ok := etag.Parse(w.header.Get("Etag"))
		return ok && !etag.NoneMatch(inm, t)
	}
	ims := w.req.Header.Get("If-Modified-Since")
	if ims == "" {
		return false
	}
	since, ok := headers.ParseHTTPDate(ims)
	if !ok {
		return false
	}
	lm, ok := headers.ParseHTTPDate(w.header.Get("Last-Modified"))
	return ok && !lm.After(since)
}

func (w *sniffWriter) Write(b []byte) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	if !w.committed {
		// Implicit 200. Like net/http, sniff the content type from the
		// first chunk when the handler declared none, so undeclared HTML
		// still gets decorated.
		if w.header.Get("Content-Type") == "" {
			w.header.Set("Content-Type", http.DetectContentType(b))
		}
		w.WriteHeader(http.StatusOK)
	}
	if w.discard {
		return len(b), nil
	}
	if w.buffering {
		return w.buf.Write(b)
	}
	return w.dst.Write(b)
}

// WriteString lets io.WriteString (and fmt) hand the writer a string
// without first copying it to a fresh []byte — on the buffering path the
// bytes land straight in the buffer. Semantics mirror Write exactly.
func (w *sniffWriter) WriteString(s string) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	if !w.committed {
		if w.header.Get("Content-Type") == "" {
			n := len(s)
			if n > 512 {
				n = 512 // DetectContentType reads at most 512 bytes
			}
			w.header.Set("Content-Type", http.DetectContentType([]byte(s[:n])))
		}
		w.WriteHeader(http.StatusOK)
	}
	if w.discard {
		return len(s), nil
	}
	if w.buffering {
		return w.buf.WriteString(s)
	}
	return io.WriteString(w.dst, s)
}

// Flush commits headers (like net/http) and forwards the flush on the
// streaming path. While buffering HTML the flush is absorbed: the rewritten
// document is delivered in one piece.
func (w *sniffWriter) Flush() {
	if !w.committed {
		w.WriteHeader(http.StatusOK)
	}
	if w.buffering || w.discard {
		return
	}
	if f, ok := w.dst.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards to the underlying writer when it supports hijacking,
// letting upgrade handshakes (e.g. WebSocket) pass through the middleware.
func (w *sniffWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.dst.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("catalyst: underlying ResponseWriter does not support hijacking")
	}
	w.hijacked = true
	w.sentToDst = true
	return hj.Hijack()
}

// body returns the buffered HTML entity. Valid only on the buffering path,
// after the inner handler returned; the middleware hands it to the render
// cache, which hashes it as-is, so the slice must not be mutated.
func (w *sniffWriter) body() []byte { return w.buf.Bytes() }

func isHTML(contentType string) bool {
	return len(contentType) >= 9 && contentType[:9] == "text/html"
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = vs
	}
}

var (
	_ http.ResponseWriter = (*sniffWriter)(nil)
	_ http.Flusher        = (*sniffWriter)(nil)
	_ http.Hijacker       = (*sniffWriter)(nil)
)
