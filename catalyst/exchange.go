package catalyst

import (
	"time"

	"cachecatalyst/internal/decorate"
)

// MapExchange is the middleware's cluster hook: a transport (see
// internal/cluster) that carries freshly built X-Etag-Config encodings
// between edge instances. An instance that rendered a page and probed its
// subresources publishes the encoded map; a peer serving the same entity
// adopts the published encoding instead of re-running its own probe
// fan-out — the fan-out being the expensive stage a cluster would
// otherwise pay once per instance per page.
//
// Keys are (tenant, page URL, page validator): the validator commits the
// encoding to the exact entity it decorates, so a peer that renders a
// different body never adopts a map built for another version. Expiries
// are unix nanoseconds — the earliest probe expiry the encoding was
// assembled from — after which the map must be re-proved locally.
//
// Implementations must be safe for concurrent use and must never block
// the serving path: Publish is called on request paths and should hand
// off asynchronously.
type MapExchange interface {
	// Lookup returns a peer-published encoding for the exact entity, with
	// its expiry, if one is known and still trusted.
	Lookup(tenant, page, pageTag string) (enc string, expires int64, ok bool)
	// Publish announces a freshly assembled encoding to peers.
	Publish(tenant, page, pageTag, enc string, expires int64)
}

// exchangeLookup consults the configured exchange for a still-fresh peer
// encoding of the entity ent. The nil-exchange check is here rather than
// at the call site so the serve path stays an if/else-if chain.
func (m *middleware) exchangeLookup(ts *tenantState, pageURL string, ent *decorate.Entry, now time.Time) (string, int64, bool) {
	ex := m.opts.Exchange
	if ex == nil {
		return "", 0, false
	}
	enc, exp, ok := ex.Lookup(ts.name, pageURL, ent.TagStr)
	if !ok || now.UnixNano() >= exp {
		return "", 0, false
	}
	return enc, exp, true
}
