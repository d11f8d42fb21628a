package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"cachecatalyst/internal/core"
	"cachecatalyst/internal/etag"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

// A single webgen tree's serving cost varies by more than 2x from seed to
// seed (page size, stylesheet count), which would swamp any regression
// bound. The nav-hot/static site therefore merges this many seeded trees,
// each under its own /sNN/ prefix, so a run averages over many page shapes.
const mergedTrees = 24

// treeRef matches the absolute same-origin references webgen writes into
// HTML (quoted attributes), CSS (url(), @import) and scripts (fetch
// directives), so they can be moved under a tree's prefix.
var treeRef = regexp.MustCompile(`(["( ])/(css|js|img|fonts|media)/`)

// staticSite is the on-disk site nav-hot and static-revalidate serve, plus
// what the checks need to know about it.
type staticSite struct {
	Dir   string
	Pages []string // HTML pages, sorted
	Res   []string // non-HTML resources, sorted
	// Tag is the strong ETag of every file as written (what catalystd's
	// FSContent derives), keyed by URL path.
	Tag map[string]string
	// Size and Stamp are the length and leading bytes of every file.
	Size  map[string]int
	Stamp map[string]string
	// Injected is each page's body after the registration snippet is
	// injected, and InjectedTag that body's validator: what the daemon
	// must serve for the page.
	Injected    map[string][]byte
	InjectedTag map[string]string
	Hash        string // sha256 over every (path, body), sorted by path
}

const stampLen = 48

// writeStaticSite generates the seeded merged site under dir.
func writeStaticSite(dir string, seed int64) (*staticSite, error) {
	s := &staticSite{
		Dir: dir, Tag: map[string]string{}, Size: map[string]int{}, Stamp: map[string]string{},
		Injected: map[string][]byte{}, InjectedTag: map[string]string{},
	}
	clock := vclock.NewVirtual(vclock.Epoch)
	params := webgen.Params{Sites: mergedTrees, Seed: seed}
	files := map[string][]byte{}
	for i := 0; i < mergedTrees; i++ {
		site := webgen.GenerateOne(params, i, clock)
		prefix := fmt.Sprintf("/s%02d", i)
		content := site.Content()
		for _, p := range content.Paths() {
			res, ok := content.Get(p)
			if !ok {
				continue
			}
			body := res.Body
			if isText(p) {
				body = treeRef.ReplaceAll(body, []byte("${1}"+prefix+"/${2}/"))
			}
			files[prefix+p] = body
		}
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := newHash()
	for _, p := range paths {
		body := files[p]
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(full, body, 0o644); err != nil {
			return nil, err
		}
		h.add(p, body)
		s.Tag[p] = etag.ForBytes(body).String()
		s.Size[p] = len(body)
		s.Stamp[p] = string(body[:min(stampLen, len(body))])
		if server.IsHTML(server.TypeByPath(p)) {
			s.Pages = append(s.Pages, p)
			inj := []byte(core.InjectRegistration(string(body)))
			s.Injected[p] = inj
			s.InjectedTag[p] = etag.ForBytes(inj).String()
		} else {
			s.Res = append(s.Res, p)
		}
	}
	s.Hash = h.sum()
	return s, nil
}

func isText(p string) bool {
	return strings.HasSuffix(p, ".html") || strings.HasSuffix(p, ".css") || strings.HasSuffix(p, ".js")
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1, which concentrates too much traffic on the
// top few items for a per-seed average to be steady.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// scheduleLen bounds every seeded request schedule; the closed-loop phases
// wrap around it.
const scheduleLen = 1 << 16

// navSchedule is nav-hot's request order: pages drawn uniformly.
func navSchedule(site *staticSite, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6e6176))
	out := make([]int, scheduleLen)
	for i := range out {
		out[i] = rng.Intn(len(site.Pages))
	}
	return out
}

// staticReq is one static-revalidate request: a resource and whether it
// carries If-None-Match with the current tag.
type staticReq struct {
	Res  int
	Cond bool
}

// Conditional share and popularity skew of static-revalidate. With the
// skew at 0.8 the seed alone moved the mean bytes per request by 6%
// (coefficient of variation over 12 seeds); at 0.6, by 3%.
const (
	staticCondShare = 0.3
	staticZipfS     = 0.6
)

func staticSchedule(site *staticSite, seed int64) []staticReq {
	rng := rand.New(rand.NewSource(seed ^ 0x737461))
	rank := rng.Perm(len(site.Res)) // rank -> resource
	z := newZipf(len(site.Res), staticZipfS)
	out := make([]staticReq, scheduleLen)
	for i := range out {
		out[i] = staticReq{Res: rank[z.draw(rng)], Cond: rng.Float64() < staticCondShare}
	}
	return out
}

// Revisit-churn shape. Sites are split across two Host-routed tenants;
// users pick sites by Zipf popularity and revisit them while the upstream's
// virtual clock advances churnStep per scheduled visit.
const (
	churnSites = 24
	churnUsers = 8
	churnZipfS = 0.6
	churnStep  = 5 * time.Minute
)

// visit is one scheduled revisit-churn page view.
type visit struct {
	User int
	Site int
	Page string
}

func churnSchedule(seed int64) []visit {
	rng := rand.New(rand.NewSource(seed ^ 0x636875))
	rank := rng.Perm(churnSites)
	z := newZipf(churnSites, churnZipfS)
	pages := []string{webgen.PagePath, webgen.SecondaryPagePath}
	out := make([]visit, scheduleLen)
	for i := range out {
		out[i] = visit{
			User: rng.Intn(churnUsers),
			Site: rank[z.draw(rng)],
			Page: pages[rng.Intn(len(pages))],
		}
	}
	return out
}

func churnHost(site int) string { return fmt.Sprintf("site%03d.example", site) }

// churnParams is the corpus the upstream serves and the benchmark checks
// against: the same seeded webgen sites in both processes.
func churnParams(seed int64) webgen.Params {
	return webgen.Params{Sites: churnSites, Seed: seed}
}

// corpusHash digests named bodies.
type corpusHash struct{ h hash.Hash }

func newHash() *corpusHash { return &corpusHash{h: sha256.New()} }

func (c *corpusHash) add(name string, body []byte) {
	fmt.Fprintf(c.h, "%s\x00%d\x00", name, len(body))
	c.h.Write(body)
}

func (c *corpusHash) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }

// scheduleHash digests a schedule so two runs can show they replayed the
// same requests.
func scheduleHash(n int, entry func(i int) []int64) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < n; i++ {
		for _, v := range entry(i) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func navHash(s []int) string {
	return scheduleHash(len(s), func(i int) []int64 { return []int64{int64(s[i])} })
}

func staticHash(s []staticReq) string {
	return scheduleHash(len(s), func(i int) []int64 {
		c := int64(0)
		if s[i].Cond {
			c = 1
		}
		return []int64{int64(s[i].Res), c}
	})
}

func churnHash(s []visit) string {
	return scheduleHash(len(s), func(i int) []int64 {
		p := int64(0)
		if s[i].Page == webgen.SecondaryPagePath {
			p = 1
		}
		return []int64{int64(s[i].User), int64(s[i].Site), p}
	})
}
