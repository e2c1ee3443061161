package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"smoke/internal/core"
	"smoke/internal/serr"
)

// resultCache is the plan-fingerprint result cache: repeated identical
// queries (crossfilter clients re-brushing the same bar, dashboards
// refreshing the same panel) return the previously executed Result without
// re-running. Keys are derived from plan.Fingerprint, which embeds relation
// identity (pointer + row count), so re-ingesting a table silently retires
// every entry that scanned the old data — stale keys can never be asked for
// again and age out of the LRU.
//
// Cached Results are shared, which is sound because an executed Result is
// immutable: traces and consuming queries only read its output relation and
// captured indexes.
type resultCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64 // <= 0 means no byte budget
	bytes    int64 // summed MemBytes of cached Results
	m        map[string]*list.Element
	l        *list.List // front = most recently used
}

type cacheEntry struct {
	key   string
	res   *core.Result
	bytes int64
}

func newResultCache(max int, maxBytes int64) *resultCache {
	return &resultCache{max: max, maxBytes: maxBytes, m: map[string]*list.Element{}, l: list.New()}
}

// get returns the cached Result for key, refreshing its LRU position.
func (c *resultCache) get(key string) (*core.Result, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores res under key, evicting LRU entries past the entry cap or the
// byte budget. Entries are charged their Result.MemBytes (output relation +
// capture indexes) — the cache pins whole Results, so an entry-count bound
// alone would let a distinct-query workload pin unbounded memory. A single
// result larger than the whole budget is simply not cached.
func (c *resultCache) put(key string, res *core.Result) {
	if c == nil || key == "" || c.max <= 0 {
		return
	}
	sz := res.MemBytes()
	if c.maxBytes > 0 && sz > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ce := el.Value.(*cacheEntry)
		c.bytes += sz - ce.bytes
		ce.res, ce.bytes = res, sz
		c.l.MoveToFront(el)
	} else {
		c.m[key] = c.l.PushFront(&cacheEntry{key: key, res: res, bytes: sz})
		c.bytes += sz
	}
	for c.l.Len() > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.l.Len() > 1) {
		back := c.l.Back()
		ce := back.Value.(*cacheEntry)
		c.l.Remove(back)
		delete(c.m, ce.key)
		c.bytes -= ce.bytes
	}
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// cacheKey hashes everything that distinguishes two executions of a plan:
// the plan fingerprint (shape + data identity + trace seeds), the capture
// options, and the bound parameter values in canonical order. Parameter
// serialization is typed and quoted — {"x":"5"} and {"x":5} must not
// collide, and a string value containing the separator must not alias a
// different parameter set.
func cacheKey(fingerprint string, opts core.CaptureOptions) string {
	var b strings.Builder
	b.WriteString(fingerprint)
	fmt.Fprintf(&b, "|mode=%d|dirs=%d|compress=%t|strategy=%d", opts.Mode, opts.Dirs, opts.Compress, opts.Strategy)
	if len(opts.Params) > 0 {
		keys := make([]string, 0, len(opts.Params))
		for k := range opts.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := opts.Params[k].(type) {
			case string:
				fmt.Fprintf(&b, "|p:%q=s:%q", k, v)
			case int64:
				fmt.Fprintf(&b, "|p:%q=i:%d", k, v)
			case float64:
				fmt.Fprintf(&b, "|p:%q=f:%x", k, v)
			case bool:
				fmt.Fprintf(&b, "|p:%q=b:%t", k, v)
			default:
				fmt.Fprintf(&b, "|p:%q=%T:%v", k, v, v)
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// gate is the bounded admission controller: at most inflight requests
// execute concurrently (sharing the DB's worker pool fairly), at most queued
// more wait for a slot, and everything beyond that is turned away
// immediately with Busy (HTTP 429) instead of piling onto the heap. Waiters
// that give up (client disconnect, server shutdown) leave the queue.
type gate struct {
	slots chan struct{} // capacity = inflight
	queue chan struct{} // capacity = inflight + queued
}

func newGate(inflight, queued int) *gate {
	return &gate{
		slots: make(chan struct{}, inflight),
		queue: make(chan struct{}, inflight+queued),
	}
}

// enter claims an execution slot or fails fast. Callers must pair a nil
// return with exit().
func (g *gate) enter(ctx context.Context) error {
	select {
	case g.queue <- struct{}{}:
	default:
		return serr.New(serr.Busy, "server: admission queue full (%d executing + waiting); retry", cap(g.queue))
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-g.queue
		return serr.New(serr.Busy, "server: request abandoned while queued: %v", ctx.Err())
	}
}

// exit releases the slot claimed by enter.
func (g *gate) exit() {
	<-g.slots
	<-g.queue
}
