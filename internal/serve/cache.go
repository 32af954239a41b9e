package serve

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
)

// responseCache memoizes the marshaled response bodies of the pure scoring
// endpoints (perplexity, logprob, zeroshot), keyed by the snapshot's load
// sequence plus a canonical encoding of the query. Caching is
// bit-transparent by construction: the stored bytes are exactly what the
// first compute marshaled, every scoring query is a deterministic function
// of (weights, query), and the key's load sequence is bumped by every
// snapshot load — so a hot reload (or an eviction followed by a reload of a
// changed file) makes every stale entry unreachable for free; the dead
// entries age out through the LRU bound.
//
// Fine-tune responses are never cached: a tuning job is a training run, not
// a scoring query, and callers vary seeds expecting fresh runs.
type responseCache struct {
	max int

	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *cacheEnt
	byKey map[string]*list.Element

	m *handles // cacheHits / cacheMisses / cacheEvicts
}

type cacheEnt struct {
	key  string
	blob []byte
}

func newResponseCache(max int, m *handles) *responseCache {
	return &responseCache{max: max, lru: list.New(), byKey: map[string]*list.Element{}, m: m}
}

// get returns the cached response body for key, refreshing its LRU
// position. The blob is read under the lock: put overwrites that field when
// two misses of one key race.
func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	var blob []byte
	if ok {
		c.lru.MoveToFront(el)
		blob = el.Value.(*cacheEnt).blob
	}
	c.mu.Unlock()
	if !ok {
		c.m.cacheMisses.Inc()
		return nil, false
	}
	c.m.cacheHits.Inc()
	return blob, true
}

// put stores a computed response body, evicting least-recently-used entries
// beyond the bound. Two racing computes of the same key store identical
// bytes (determinism contract), so last-write-wins is safe.
func (c *responseCache) put(key string, blob []byte) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEnt).blob = blob
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEnt{key: key, blob: blob})
	evicted := 0
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheEnt).key)
		evicted++
	}
	c.mu.Unlock()
	c.m.cacheEvicts.Add(int64(evicted))
}

// Len reports the resident entry count.
func (c *responseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// entryKey prefixes a canonical query with the snapshot's identity. The
// load sequence — not the per-path generation — is the invalidation tag: it
// is unique across every load the registry ever performed, so an entry
// evicted and later reloaded from a changed file can never resurrect a
// stale response (per-path generations restart at 1 after an eviction and
// would collide).
func entryKey(e *Entry, canon string) string {
	var b strings.Builder
	b.Grow(len(e.Path) + len(canon) + 24)
	b.WriteString(strconv.FormatInt(e.loadSeq, 10))
	b.WriteByte('|')
	b.WriteString(e.Path)
	b.WriteByte('|')
	b.WriteString(canon)
	return b.String()
}

// canonInts appends a canonical rendering of an int slice (length-prefixed
// so [1],[2] and [1,2],[] cannot collide).
func canonInts(b *strings.Builder, xs []int) {
	b.WriteString(strconv.Itoa(len(xs)))
	b.WriteByte(':')
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
}
