// Package cachestore is the one cache core every cache in this repository
// builds on: a sharded, byte-budgeted LRU key-value store, generic over the
// value type, with a lock-free read path, singleflight loading and atomic
// hit/miss/eviction counters.
//
// The paper's server-side argument is that redundant work — like redundant
// round trips — is pure waste. Before this package the repository carried
// four independently hand-rolled caches (the client's response map, the
// RFC 9111 browser cache, the Service-Worker cache storage, and the
// middleware's probe cache), each with its own eviction bugs and none safe
// to share between goroutines. They now all store through a Store.
//
// # Warm-path fast lane
//
// A fully-warm Get touches no mutex. Each shard keeps its key→entry index
// in a read-mostly concurrent map (sync.Map) that readers load from
// lock-free; an entry's value, key and size are immutable after
// publication, so a reader can never observe a torn entry — replacing a
// key's value publishes a whole new entry, and an entry removed while a
// reader holds it simply stays readable until the reader drops it (the
// garbage collector is the epoch reclamation: memory is reused only after
// the last reader lets go).
//
// Recency is recorded lock-free too: a Get bumps the entry's eviction rank
// with a single atomic store and touches nothing else. The per-shard
// ordering structures (recency list, rank heap) are maintained only by
// writers — under the shard mutex — and are allowed to go stale while a
// shard takes only reads. Victim selection revalidates lazily: a candidate
// whose live rank no longer matches its linked position is re-linked (paying
// off the deferred promotions) and the scan repeats, so the entry finally
// chosen is exactly the globally smallest live rank. Ranks only grow —
// LRU stamps come off a monotone counter, GDSF priorities only inflate —
// which is what makes "candidate's rank unchanged since linking" prove
// global minimality. Single-threaded eviction order is therefore exactly
// what the pre-lock-free store produced; concurrent races can at worst pick
// a near-minimal victim, the same tolerance the sharded scan always had.
//
// Eviction and admission are pluggable (Options.Policy; see policy.go).
// The default is globally exact LRU regardless of the shard count: every
// entry carries a store-wide touch stamp, each shard's list is ordered by
// stamp, so the globally least-recently-used entry is always the shard
// tail with the smallest stamp — found by one O(shards) scan, no global
// lock. Rank-based policies (GDSF) replace the per-shard recency list
// with a per-shard min-heap on the policy rank and evict the smallest
// root the same way; an admission policy (TinyLFU) additionally gates
// budget-displacing inserts.
package cachestore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachecatalyst/internal/telemetry"
)

// Options configures a Store.
type Options[V any] struct {
	// Shards is the number of independent mutex-protected segments keys
	// hash across. Zero selects 16; values are rounded up to a power of
	// two (capped at 256). More shards mean less write-lock contention
	// under concurrent load; eviction order is unaffected. Reads never
	// take a shard lock regardless.
	Shards int
	// MaxBytes bounds the sum of entry sizes as reported by SizeOf;
	// 0 means unbounded. The least-recently-used entry (across all
	// shards) is evicted first.
	MaxBytes int64
	// SizeOf reports an entry's accounting size. Nil charges 1 per
	// entry, turning MaxBytes into a maximum entry count.
	SizeOf func(key string, v V) int64
	// Policy selects the eviction policy and optional admission filter.
	// The zero value is exact global LRU admitting everything — the
	// pre-policy behaviour, on the pre-policy fast path.
	Policy Policy
	// OnEvict, when set, observes budget evictions — not Delete, Clear
	// or replacement. It is called with no shard lock held, so it may
	// call back into the store.
	OnEvict func(key string, v V)
	// Telemetry, when set together with Name, registers the store's
	// counters in the given registry as "<Name>.hits", "<Name>.misses",
	// "<Name>.puts", "<Name>.evictions", "<Name>.loads",
	// "<Name>.loads_shared", "<Name>.admission_rejects" and
	// "<Name>.victim_scans". The registry indexes the store's own
	// counters — Counters() and the registry snapshot read the same
	// storage.
	Telemetry *telemetry.Registry
	// Name qualifies the store's instruments in Telemetry.
	Name string
}

// Counters is a snapshot of a store's atomic counters.
type Counters struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts insertions and replacements; Evictions counts entries
	// removed to respect the byte budget.
	Puts, Evictions int64
	// Loads counts loader executions by Do/GetOrLoad (a GetOrLoad flight
	// that finds the value already stored counts a hit instead);
	// LoadsShared counts callers that piggybacked on another goroutine's
	// in-flight load instead of running their own.
	Loads, LoadsShared int64
	// AdmissionRejects counts inserts the admission policy refused;
	// VictimScans counts candidate entries examined while selecting
	// victims (one per non-empty shard peeked per selection pass).
	AdmissionRejects, VictimScans int64
}

// node is one resident entry. key, val and size are immutable after the
// entry is published in its shard's index, which is what makes lock-free
// reads safe: replacing a key's value installs a fresh node. stamp is the
// entry's live eviction rank, updated by lock-free readers; linked is the
// rank the entry's list/heap position reflects, touched only under the
// shard mutex. stamp only ever grows, and stamp == linked means the
// position is current.
type node[V any] struct {
	key  string
	val  V
	size int64
	// stamp is the entry's live eviction rank — the smallest rank in the
	// store is evicted first. Under the default LRU policy it is the
	// store-wide touch counter value at the last Get/Put (smaller means
	// less recently used); under a rank policy it is whatever the
	// ranker computed at the last access. Written lock-free by Get.
	stamp atomic.Uint64
	// linked is the rank at which the entry was last positioned in its
	// shard's recency list or rank heap. Guarded by the shard mutex.
	linked uint64
	// freq counts this entry's accesses while resident (saturating;
	// racing increments may be lost, which only rankers consume and the
	// rank policies tolerate by construction).
	freq atomic.Uint32
	// hidx is the entry's index in its shard's rank heap; -1 when the
	// store runs the LRU list path instead.
	hidx       int32
	prev, next *node[V]
}

type shard[V any] struct {
	mu sync.Mutex
	// index maps key → *node[V]. Readers Load lock-free; all mutation
	// happens under mu, so writers see a consistent membership.
	index sync.Map
	count atomic.Int64 // resident entries; mutated under mu
	head  *node[V]     // most recently linked (LRU policy only)
	tail  *node[V]     // least recently linked (LRU policy only)
	heap  []*node[V]   // min-heap on linked rank (rank policies only)
}

// The shard list operations require the shard mutex.

func (s *shard[V]) pushFront(n *node[V]) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	} else {
		s.tail = n
	}
	s.head = n
}

func (s *shard[V]) unlink(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// relink pays off a deferred lock-free promotion: the node's live stamp ran
// ahead of its list position, so unhook it and re-insert it in descending
// linked-stamp order. Promotions carry recent stamps, so the insertion point
// is almost always the head — O(1) amortized. Requires the shard mutex.
func (s *shard[V]) relink(n *node[V], stamp uint64) {
	n.linked = stamp
	s.unlink(n)
	at := s.head
	for at != nil && at.linked > stamp {
		at = at.next
	}
	switch {
	case at == nil: // empty list or smallest stamp: new tail
		if s.tail != nil {
			n.prev, s.tail.next = s.tail, n
			s.tail = n
		} else {
			s.head, s.tail = n, n
		}
	case at == s.head:
		s.pushFront(n)
	default: // insert before at
		n.prev, n.next = at.prev, at
		at.prev.next, at.prev = n, n
	}
}

// Store is a sharded LRU store with lock-free reads. The zero value is not
// usable; construct with New. A Store is safe for concurrent use.
type Store[V any] struct {
	shards  []shard[V]
	mask    uint64
	sizeOf  func(string, V) int64
	onEvict func(string, V)
	ranker  ranker   // nil selects the recency-list exact-LRU path
	admit   admitter // nil admits everything

	maxBytes atomic.Int64 // live-adjustable via Resize
	bytes    atomic.Int64
	touch    atomic.Uint64 // LRU stamps

	hits, misses, puts, evictions telemetry.Counter
	loads, loadsShared            telemetry.Counter
	admissionRejects, victimScans telemetry.Counter

	flight flightGroup[V]

	// opts is the construction configuration, retained so Namespace can
	// spawn children that inherit it; children maps namespace name → child
	// store (see namespace.go). Guarded by nsMu.
	opts     Options[V]
	nsMu     sync.Mutex
	children map[string]*Store[V]
}

// New returns an empty store.
func New[V any](opts Options[V]) *Store[V] {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	pow := 1
	for pow < n && pow < 256 {
		pow <<= 1
	}
	s := &Store[V]{
		shards:  make([]shard[V], pow),
		mask:    uint64(pow - 1),
		sizeOf:  opts.SizeOf,
		onEvict: opts.OnEvict,
		opts:    opts,
	}
	s.maxBytes.Store(opts.MaxBytes)
	if ev := opts.Policy.Eviction; ev != nil {
		s.ranker = ev.newRanker()
	}
	if ad := opts.Policy.Admission; ad != nil {
		s.admit = ad.newAdmitter()
	}
	if s.sizeOf == nil {
		s.sizeOf = func(string, V) int64 { return 1 }
	}
	s.flight.calls = make(map[string]*flightCall[V])
	if opts.Telemetry != nil && opts.Name != "" {
		opts.Telemetry.RegisterCounter(opts.Name+".hits", &s.hits)
		opts.Telemetry.RegisterCounter(opts.Name+".misses", &s.misses)
		opts.Telemetry.RegisterCounter(opts.Name+".puts", &s.puts)
		opts.Telemetry.RegisterCounter(opts.Name+".evictions", &s.evictions)
		opts.Telemetry.RegisterCounter(opts.Name+".loads", &s.loads)
		opts.Telemetry.RegisterCounter(opts.Name+".loads_shared", &s.loadsShared)
		opts.Telemetry.RegisterCounter(opts.Name+".admission_rejects", &s.admissionRejects)
		opts.Telemetry.RegisterCounter(opts.Name+".victim_scans", &s.victimScans)
	}
	return s
}

// hashKey is inline FNV-1a; good spread on URL-shaped keys, no allocation.
// The same hash selects the shard and feeds the admission sketch.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store[V]) shard(key string) (*shard[V], uint64) {
	h := hashKey(key)
	return &s.shards[h&s.mask], h
}

// Get returns the value for key, promoting it under the active eviction
// policy and counting the hit or miss. A warm hit acquires no mutex: the
// lookup reads the shard's concurrent index and the promotion is one atomic
// rank store, deferred into the shard's ordering structures until the next
// write needs them (see the package comment's warm-path fast lane).
func (s *Store[V]) Get(key string) (V, bool) {
	sh, h := s.shard(key)
	if s.admit != nil {
		s.admit.record(h)
	}
	e, ok := sh.index.Load(key)
	if !ok {
		s.misses.Add(1)
		var zero V
		return zero, false
	}
	n := e.(*node[V])
	s.promote(n)
	s.hits.Add(1)
	return n.val, true
}

// GetBytes is Get for callers that assembled the key in a scratch buffer:
// the lookup indexes with string(key) directly, which the compiler performs
// without copying, so a warm hit allocates nothing. The promotion and
// counter semantics are identical to Get.
func (s *Store[V]) GetBytes(key []byte) (V, bool) {
	sh := &s.shards[hashKeyBytes(key)&s.mask]
	if s.admit != nil {
		s.admit.record(hashKeyBytes(key))
	}
	e, ok := sh.index.Load(string(key))
	if !ok {
		s.misses.Add(1)
		var zero V
		return zero, false
	}
	n := e.(*node[V])
	s.promote(n)
	s.hits.Add(1)
	return n.val, true
}

// hashKeyBytes is hashKey over a byte slice.
func hashKeyBytes(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// promote records an access on a resident entry with atomics only: LRU
// stores a fresh touch stamp; rank policies bump the (saturating, lossy
// under races) frequency and store the recomputed rank. The entry's
// list/heap position is intentionally left stale — victim selection
// revalidates it before trusting it.
func (s *Store[V]) promote(n *node[V]) {
	if s.ranker == nil {
		n.stamp.Store(s.touch.Add(1))
		return
	}
	f := n.freq.Load()
	if f != ^uint32(0) {
		f++
		n.freq.Store(f)
	}
	n.stamp.Store(s.ranker.onAccess(f, n.size))
}

// Peek returns the value for key without touching eviction order or
// counters. Lock-free.
func (s *Store[V]) Peek(key string) (V, bool) {
	sh, _ := s.shard(key)
	e, ok := sh.index.Load(key)
	if !ok {
		var zero V
		return zero, false
	}
	return e.(*node[V]).val, true
}

// Put stores v under key, replacing any previous entry, then enforces the
// byte budget. With an admission policy, a new key whose insert would
// exceed the budget is stored only if the policy judges it more valuable
// than the current victim; resident keys are always updated in place.
func (s *Store[V]) Put(key string, v V) {
	size := s.sizeOf(key, v)
	sh, h := s.shard(key)
	// The admission question is asked before taking the insert shard's
	// lock — victim peeking locks shards one at a time and must never
	// nest. The gap between the peek and the insert is benign: the
	// sketch is approximate, and a racing eviction merely changes which
	// near-minimal victim the candidate was compared against.
	var victimHash uint64
	askAdmission := false
	if s.admit != nil {
		s.admit.record(h)
		if max := s.maxBytes.Load(); max > 0 && s.bytes.Load()+size > max {
			if vk, ok := s.peekVictimKey(); ok && vk != key {
				victimHash = hashKey(vk)
				askAdmission = true
			}
		}
	}
	sh.mu.Lock()
	var old *node[V]
	if e, ok := sh.index.Load(key); ok {
		old = e.(*node[V])
	}
	if old == nil && askAdmission && !s.admit.admit(h, victimHash) {
		sh.mu.Unlock()
		s.admissionRejects.Add(1)
		return
	}
	// Replacement installs a fresh node so concurrent lock-free readers
	// never observe a half-updated entry; the rank it starts with is the
	// same one the locked store would have promoted the old entry to.
	n := &node[V]{key: key, val: v, size: size, hidx: -1}
	freq := uint32(1)
	if old != nil && s.ranker != nil {
		if f := old.freq.Load(); f == ^uint32(0) {
			freq = f
		} else {
			freq = f + 1
		}
	}
	n.freq.Store(freq)
	var rank uint64
	if s.ranker == nil {
		rank = s.touch.Add(1)
	} else {
		rank = s.ranker.onAccess(freq, size)
	}
	n.stamp.Store(rank)
	n.linked = rank
	if old != nil {
		s.bytes.Add(size - old.size)
		s.unhook(sh, old)
	} else {
		s.bytes.Add(size)
		sh.count.Add(1)
	}
	if s.ranker == nil {
		// rank came off the monotone touch counter under the lock, so it
		// is the largest linked stamp in the shard: the head is exact.
		sh.pushFront(n)
	} else {
		sh.heapPush(n)
	}
	sh.index.Store(key, n)
	sh.mu.Unlock()
	s.puts.Add(1)
	s.enforceBudget()
}

// enforceBudget evicts globally-least-recently-used entries until the byte
// budget is respected. Concurrent evictors can race on the choice of
// victim; each still evicts some near-LRU entry and the loop re-checks the
// budget, so the store converges. Single-threaded use is exactly LRU.
func (s *Store[V]) enforceBudget() {
	max := s.maxBytes.Load()
	if max <= 0 {
		return
	}
	for s.bytes.Load() > max {
		key, val, ok := s.evictOne()
		if !ok {
			return
		}
		s.evictions.Add(1)
		if s.onEvict != nil {
			s.onEvict(key, val)
		}
		max = s.maxBytes.Load()
	}
}

// victim returns the shard's eviction candidate with its live rank paid
// off: the list tail under LRU, the heap root under a rank policy. A
// candidate whose live stamp ran ahead of its linked position is re-linked
// and the peek repeats, so the returned entry's position is current — which
// (ranks only grow) proves it is the shard's true minimum. The iteration
// bound only matters under concurrent promotion storms, where a near-
// minimal victim is acceptable; single-threaded the loop settles exactly.
// Requires the shard lock.
func (s *Store[V]) victim(sh *shard[V]) *node[V] {
	limit := int(sh.count.Load()) + 8
	if s.ranker == nil {
		for i := 0; ; i++ {
			t := sh.tail
			if t == nil {
				return nil
			}
			live := t.stamp.Load()
			if live == t.linked || i >= limit {
				return t
			}
			sh.relink(t, live)
		}
	}
	for i := 0; ; i++ {
		if len(sh.heap) == 0 {
			return nil
		}
		r := sh.heap[0]
		live := r.stamp.Load()
		if live == r.linked || i >= limit {
			return r
		}
		r.linked = live
		sh.heapFix(r)
	}
}

// findVictimShard scans every shard for the globally smallest rank,
// counting the candidates examined. Shards are locked one at a time —
// never nested — so selection cannot deadlock with Put or other evictors.
func (s *Store[V]) findVictimShard() int {
	best := -1
	var bestStamp uint64
	scanned := int64(0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if n := s.victim(sh); n != nil {
			scanned++
			if best < 0 || n.linked < bestStamp {
				best, bestStamp = i, n.linked
			}
		}
		sh.mu.Unlock()
	}
	if scanned > 0 {
		s.victimScans.Add(scanned)
	}
	return best
}

// peekVictimKey names the current global eviction candidate without
// removing it, for admission comparisons.
func (s *Store[V]) peekVictimKey() (string, bool) {
	best := s.findVictimShard()
	if best < 0 {
		return "", false
	}
	sh := &s.shards[best]
	sh.mu.Lock()
	n := s.victim(sh)
	sh.mu.Unlock()
	if n == nil {
		return "", false
	}
	return n.key, true
}

// evictOne removes and returns the entry with the smallest rank.
func (s *Store[V]) evictOne() (string, V, bool) {
	var zero V
	best := s.findVictimShard()
	if best < 0 {
		return "", zero, false
	}
	sh := &s.shards[best]
	sh.mu.Lock()
	n := s.victim(sh)
	if n == nil {
		// A concurrent evictor drained this shard between the scan and
		// the re-lock; it is making progress, so stop here.
		sh.mu.Unlock()
		return "", zero, false
	}
	s.remove(sh, n)
	sh.mu.Unlock()
	if s.ranker != nil {
		s.ranker.onEvict(n.linked)
	}
	return n.key, n.val, true
}

// unhook detaches a node from its shard's ordering structure (not the
// index). Requires the shard lock.
func (s *Store[V]) unhook(sh *shard[V], n *node[V]) {
	if s.ranker == nil {
		sh.unlink(n)
	} else {
		sh.heapRemove(n)
	}
}

// remove unhooks a resident entry from its shard's bookkeeping. Requires
// the shard lock.
func (s *Store[V]) remove(sh *shard[V], n *node[V]) {
	s.unhook(sh, n)
	sh.index.Delete(n.key)
	sh.count.Add(-1)
	s.bytes.Add(-n.size)
}

// Delete removes the entry for key, reporting whether one existed.
func (s *Store[V]) Delete(key string) bool {
	sh, _ := s.shard(key)
	sh.mu.Lock()
	e, ok := sh.index.Load(key)
	if ok {
		s.remove(sh, e.(*node[V]))
	}
	sh.mu.Unlock()
	return ok
}

// Clear empties the store. Counters are not reset. Readers that already
// hold an entry keep reading it consistently — entries are immutable and
// reclaimed by the garbage collector once the last reader drops them.
func (s *Store[V]) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.index.Range(func(k, e any) bool {
			s.bytes.Add(-e.(*node[V]).size)
			sh.index.Delete(k)
			return true
		})
		sh.count.Store(0)
		sh.head, sh.tail = nil, nil
		sh.heap = nil
		sh.mu.Unlock()
	}
}

// Resize changes the byte budget while the store serves traffic, evicting
// down under the active policy when the new budget is smaller. A budget of
// 0 or less removes the bound. Concurrent Puts observe the new budget as
// soon as it is stored.
func (s *Store[V]) Resize(maxBytes int64) {
	s.maxBytes.Store(maxBytes)
	s.enforceBudget()
}

// MaxBytes returns the current byte budget (0 = unbounded).
func (s *Store[V]) MaxBytes() int64 { return s.maxBytes.Load() }

// Len returns the number of stored entries.
func (s *Store[V]) Len() int {
	total := int64(0)
	for i := range s.shards {
		total += s.shards[i].count.Load()
	}
	return int(total)
}

// Bytes returns the total accounting size of stored entries.
func (s *Store[V]) Bytes() int64 { return s.bytes.Load() }

// Keys returns the stored keys, in no particular order.
func (s *Store[V]) Keys() []string {
	keys := make([]string, 0, 64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.index.Range(func(k, _ any) bool {
			keys = append(keys, k.(string))
			return true
		})
		sh.mu.Unlock()
	}
	return keys
}

// Audit cross-checks the store's bookkeeping invariants: every shard's
// eviction structure (recency list under LRU, rank heap under a rank
// policy) and index must agree entry for entry, the ordering invariant must
// hold (list order follows the linked stamps; the heap property holds on
// linked ranks; no live rank lags its linked position), and the charged
// sizes must sum to Bytes(). It returns the first inconsistency found, or
// nil. Audit is meant for tests — the byte total is only meaningful when no
// concurrent mutation is in flight.
func (s *Store[V]) Audit() error {
	var total int64
	for i := range s.shards {
		n, err := s.auditShard(i)
		if err != nil {
			return err
		}
		total += n
	}
	if got := s.bytes.Load(); got != total {
		return fmt.Errorf("cachestore: byte counter %d, entries sum to %d", got, total)
	}
	return nil
}

// auditShard checks one shard's invariants and returns its charged bytes.
func (s *Store[V]) auditShard(i int) (int64, error) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	indexed := 0
	sh.index.Range(func(_, _ any) bool { indexed++; return true })
	if c := int(sh.count.Load()); c != indexed {
		return 0, fmt.Errorf("cachestore: shard %d counts %d entries, index holds %d", i, c, indexed)
	}
	var total int64
	check := func(n *node[V]) error {
		if e, ok := sh.index.Load(n.key); !ok || e.(*node[V]) != n {
			return fmt.Errorf("cachestore: shard %d linked node %q not in index", i, n.key)
		}
		if live := n.stamp.Load(); live < n.linked {
			return fmt.Errorf("cachestore: entry %q live rank %d lags its linked rank %d", n.key, live, n.linked)
		}
		size := s.sizeOf(n.key, n.val)
		if size != n.size {
			return fmt.Errorf("cachestore: entry %q charged %d bytes, SizeOf says %d", n.key, n.size, size)
		}
		total += n.size
		return nil
	}
	if s.ranker != nil {
		if len(sh.heap) != indexed {
			return 0, fmt.Errorf("cachestore: shard %d heap holds %d entries, index holds %d", i, len(sh.heap), indexed)
		}
		for j, n := range sh.heap {
			if int(n.hidx) != j {
				return 0, fmt.Errorf("cachestore: shard %d heap node %q claims index %d, is at %d", i, n.key, n.hidx, j)
			}
			if j > 0 && sh.heap[(j-1)/2].linked > n.linked {
				return 0, fmt.Errorf("cachestore: shard %d heap property violated at %q", i, n.key)
			}
			if err := check(n); err != nil {
				return 0, err
			}
		}
		return total, nil
	}
	listed := 0
	prevStamp := ^uint64(0)
	var last *node[V]
	for n := sh.head; n != nil; n = n.next {
		listed++
		if listed > indexed {
			return 0, fmt.Errorf("cachestore: shard %d recency list longer than its index (%d entries)", i, indexed)
		}
		if n.linked > prevStamp {
			return 0, fmt.Errorf("cachestore: shard %d stamps out of order at %q (%d after %d)", i, n.key, n.linked, prevStamp)
		}
		prevStamp = n.linked
		if err := check(n); err != nil {
			return 0, err
		}
		last = n
	}
	if listed != indexed {
		return 0, fmt.Errorf("cachestore: shard %d lists %d entries, index holds %d", i, listed, indexed)
	}
	if sh.tail != last {
		return 0, fmt.Errorf("cachestore: shard %d tail does not terminate the list", i)
	}
	return total, nil
}

// Counters returns a snapshot of the store's counters.
func (s *Store[V]) Counters() Counters {
	return Counters{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Puts:             s.puts.Load(),
		Evictions:        s.evictions.Load(),
		Loads:            s.loads.Load(),
		LoadsShared:      s.loadsShared.Load(),
		AdmissionRejects: s.admissionRejects.Load(),
		VictimScans:      s.victimScans.Load(),
	}
}
