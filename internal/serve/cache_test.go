package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"apollo/internal/obs"
)

// postRaw is postJSON plus headers: the cache tests need X-Cache and the
// exact response bytes.
func postRaw(t *testing.T, url string, req any) (int, string, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, buf.String(), r.Header
}

// TestResponseCacheLRU drives the cache directly: hits refresh recency, the
// entry bound evicts least-recently-used first, and the counters track every
// event.
func TestResponseCacheLRU(t *testing.T) {
	reg := newTestRegistry(t, Config{CacheEntries: 2})
	c := reg.cache
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if blob, ok := c.get("a"); !ok || string(blob) != "A" {
		t.Fatalf("get a = %q, %v", blob, ok)
	}
	// a is now most recent; inserting c must evict b.
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if blob, ok := c.get("a"); !ok || string(blob) != "A" {
		t.Fatalf("a evicted instead of b: %q, %v", blob, ok)
	}
	// Update-in-place must not grow the cache.
	c.put("c", []byte("C2"))
	if got := c.Len(); got != 2 {
		t.Fatalf("len %d after in-place update, want 2", got)
	}
	if blob, _ := c.get("c"); string(blob) != "C2" {
		t.Fatalf("c = %q, want C2", blob)
	}
	if h, m, e := reg.m.cacheHits.Value(), reg.m.cacheMisses.Value(), reg.m.cacheEvicts.Value(); h != 3 || m != 2 || e != 1 {
		t.Fatalf("counters hits=%d misses=%d evicts=%d, want 3/2/1", h, m, e)
	}
}

// TestCacheGetPutSameKeyRace: two misses of one key both put, and put
// overwrites the resident entry's blob under the lock — so get must read
// that field inside the critical section too. Run under -race (CI's Race
// step lists this package); with the read after Unlock the detector fires.
func TestCacheGetPutSameKeyRace(t *testing.T) {
	c := newTestRegistry(t, Config{}).cache
	c.put("k", []byte("v"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.put("k", []byte("v"))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if blob, ok := c.get("k"); !ok || string(blob) != "v" {
					t.Errorf("get = %q, %v", blob, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHTTPCacheBitIdentical is the tentpole parity contract over HTTP: a
// cached response is char-for-char the bytes the first compute sent, the
// X-Cache header tells the paths apart, and the cache counters move.
func TestHTTPCacheBitIdentical(t *testing.T) {
	o := obs.NewRegistry()
	ts, path, reg := newTestServer(t, Config{Metrics: o})
	if reg.cache == nil {
		t.Fatal("cache not enabled by default")
	}

	req := logProbRequest{Checkpoint: path, Context: []int{1, 2, 3}, Option: []int{4, 5}}
	status, first, h := postRaw(t, ts.URL+"/v1/logprob", req)
	if status != http.StatusOK || h.Get("X-Cache") != "miss" {
		t.Fatalf("first query: status %d, X-Cache %q (%s)", status, h.Get("X-Cache"), first)
	}
	for i := 0; i < 3; i++ {
		status, body, h := postRaw(t, ts.URL+"/v1/logprob", req)
		if status != http.StatusOK || h.Get("X-Cache") != "hit" {
			t.Fatalf("repeat %d: status %d, X-Cache %q", i, status, h.Get("X-Cache"))
		}
		if body != first {
			t.Fatalf("repeat %d drifted:\n%q\n%q", i, body, first)
		}
	}

	_, expo := scrape(t, ts.URL+"/metrics")
	if v := metricValue(t, expo, "apollo_serve_cache_hits_total"); v != 3 {
		t.Fatalf("cache hits %v, want 3", v)
	}
	if v := metricValue(t, expo, "apollo_serve_cache_misses_total"); v != 1 {
		t.Fatalf("cache misses %v, want 1", v)
	}
}

// TestCacheInvalidatedByHotReload: overwriting the checkpoint bumps the load
// sequence, so the same query computes fresh on the new weights instead of
// resurrecting the old generation's answer.
func TestCacheInvalidatedByHotReload(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	req := perplexityRequest{Checkpoint: path, Batches: 2, Batch: 4, Seq: 16}
	if status, _, h := postRaw(t, ts.URL+"/v1/perplexity", req); status != http.StatusOK || h.Get("X-Cache") != "miss" {
		t.Fatalf("first query not a computed 200 (%d, %q)", status, h.Get("X-Cache"))
	}
	_, old, _ := postRaw(t, ts.URL+"/v1/perplexity", req)

	// A longer run saved over the same path: the atomic temp+rename save
	// lands a new inode, which Acquire's stat compare always notices.
	newPath, _ := trainAndSave(t, dir, 5)
	if err := copyFile(newPath, path); err != nil {
		t.Fatal(err)
	}

	status, fresh, h := postRaw(t, ts.URL+"/v1/perplexity", req)
	if status != http.StatusOK {
		t.Fatalf("post-reload query: %d (%s)", status, fresh)
	}
	if h.Get("X-Cache") != "miss" {
		t.Fatalf("post-reload query served from cache (X-Cache %q) — stale generation", h.Get("X-Cache"))
	}
	if fresh == old {
		t.Fatal("post-reload response identical to pre-reload; weights changed, so the cache served stale bytes")
	}
	var resp perplexityResponse
	if err := json.Unmarshal([]byte(fresh), &resp); err != nil || resp.Step != 5 {
		t.Fatalf("post-reload step %d, want 5 (%v)", resp.Step, err)
	}
	// And the new generation caches too.
	if _, again, h := postRaw(t, ts.URL+"/v1/perplexity", req); h.Get("X-Cache") != "hit" || again != fresh {
		t.Fatalf("second post-reload query not a byte-identical hit (X-Cache %q)", h.Get("X-Cache"))
	}
}

// TestCacheEvictReloadNoStaleResurrection pins the invalidation-tag choice:
// per-path generations restart at 1 after an eviction, so a generation-keyed
// cache would resurrect stale bytes when an evicted path reloads from a
// changed file. The registry-global load sequence cannot collide.
func TestCacheEvictReloadNoStaleResurrection(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := trainAndSave(t, dir, 2)
	pathB, _ := trainAndSave(t, dir, 3)
	reg := newTestRegistry(t, Config{MaxModels: 1})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	req := perplexityRequest{Checkpoint: pathA, Batches: 2, Batch: 4, Seq: 16}
	_, old, _ := postRaw(t, ts.URL+"/v1/perplexity", req)

	// Evict A by touching B, then change A's bytes on disk.
	if status, _, _ := postRaw(t, ts.URL+"/v1/perplexity",
		perplexityRequest{Checkpoint: pathB, Batches: 1, Batch: 2, Seq: 8}); status != http.StatusOK {
		t.Fatal("warming B failed")
	}
	if reg.Evictions() == 0 {
		t.Fatal("A was not evicted; MaxModels bound broken")
	}
	changed, _ := trainAndSave(t, dir, 6)
	if err := copyFile(changed, pathA); err != nil {
		t.Fatal(err)
	}

	status, fresh, h := postRaw(t, ts.URL+"/v1/perplexity", req)
	if status != http.StatusOK {
		t.Fatalf("reload-after-evict query: %d (%s)", status, fresh)
	}
	if h.Get("X-Cache") == "hit" || fresh == old {
		t.Fatal("evict+reload resurrected a stale cached response")
	}
	var resp perplexityResponse
	if err := json.Unmarshal([]byte(fresh), &resp); err != nil || resp.Step != 6 {
		t.Fatalf("reloaded step %d, want 6 (%v)", resp.Step, err)
	}
}

// TestCacheDisabled: CacheEntries < 0 turns the cache off — every query
// computes and no X-Cache header is emitted.
func TestCacheDisabled(t *testing.T) {
	ts, path, reg := newTestServer(t, Config{CacheEntries: -1})
	if reg.cache != nil {
		t.Fatal("cache built despite CacheEntries < 0")
	}
	req := logProbRequest{Checkpoint: path, Context: []int{1}, Option: []int{2}}
	for i := 0; i < 2; i++ {
		status, _, h := postRaw(t, ts.URL+"/v1/logprob", req)
		if status != http.StatusOK {
			t.Fatalf("query %d: %d", i, status)
		}
		if got := h.Get("X-Cache"); got != "" {
			t.Fatalf("query %d: X-Cache %q with caching disabled", i, got)
		}
	}
}

// TestEntryKeyCanonical: the canonical encodings are length-prefixed so
// adjacent fields cannot bleed into each other.
func TestEntryKeyCanonical(t *testing.T) {
	e1 := &Entry{Path: "/p", loadSeq: 1}
	e2 := &Entry{Path: "/p", loadSeq: 2}
	if entryKey(e1, "q") == entryKey(e2, "q") {
		t.Fatal("different load sequences collided")
	}
	keys := map[string]string{}
	for _, q := range [][2][]int{
		{{1}, {2}},
		{{1, 2}, nil},
		{nil, {1, 2}},
		{{12}, {}},
		{{1}, {2, 0}},
	} {
		canon := logProbCanon(q[0], q[1])
		if prev, dup := keys[canon]; dup {
			t.Fatalf("queries %v and %s collided on %q", q, prev, canon)
		}
		keys[canon] = fmt.Sprint(q)
	}
}

// copyFile atomically replaces dst with src's bytes via temp+rename — the
// same landing pattern as a real checkpoint save, so the registry's inode
// compare sees a change.
func copyFile(src, dst string) error {
	blob, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}
