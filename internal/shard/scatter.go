package shard

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"smoke/internal/core"
	"smoke/internal/serr"
	"smoke/internal/server"
	"smoke/internal/wire"
)

// node is one in-process shard: a full engine (its own DB, worker pool,
// session registry, and cache) behind the standard server handler stack. The
// coordinator speaks to it through the handler seam, never by reaching into
// the server's internals, so a node is behaviorally identical to a remote
// smoked process — and the seam is the fault-injection point: tests swap in
// a wedged or failing handler, and nil marks the shard down.
type node struct {
	id  int
	db  *core.DB
	srv *server.Server

	mu      sync.RWMutex
	handler http.Handler // nil: the shard is down

	// Coordinator-side per-shard counters (surfaced in /healthz).
	calls    atomic.Uint64
	failures atomic.Uint64
}

func (n *node) currentHandler() http.Handler {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.handler
}

// setHandler swaps the shard's request handler. Tests use it to inject
// faults; nil simulates a killed shard.
func (n *node) setHandler(h http.Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

// callResult is one shard HTTP exchange: the status and either the body or,
// on a gather call, the typed result the handler handed back in its place.
type callResult struct {
	status int
	body   []byte
	result *wire.Result
}

// recorder is the response writer a gather call runs a shard's handler
// against: a ResponseRecorder that also takes a typed result (a
// wire.ResultTaker), so an in-process shard's reply crosses the seam as
// columns, not as JSON encoded only to be parsed again.
type recorder struct {
	*httptest.ResponseRecorder
	result *wire.Result
}

func (r *recorder) TakeResult(status int, res *wire.Result) {
	r.WriteHeader(status)
	r.result = res
}

func (r *callResult) ok() bool { return r.status >= 200 && r.status < 300 }

// invoke runs one request against the shard's handler stack with the
// caller's deadline. The handler runs on its own goroutine so a wedged shard
// cannot wedge the coordinator: when ctx expires first the call returns a
// structured Unavailable (HTTP 503) naming the shard, and the stuck
// goroutine is abandoned with its private recorder — it can never write
// into a reply the coordinator already sent. With take, the recorder takes
// a typed result the handler hands back; without, the reply is bytes.
func (n *node) invoke(ctx context.Context, method, path string, body []byte, contentType string, take bool) (*callResult, error) {
	n.calls.Add(1)
	h := n.currentHandler()
	if h == nil {
		n.failures.Add(1)
		return nil, serr.New(serr.Unavailable, "shard: shard %d is down; partial results are not served", n.id)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	done := make(chan *callResult, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				// The server recovers its own panics; this guards injected
				// test handlers so a fault simulation can never kill the
				// coordinator process.
				done <- &callResult{status: http.StatusInternalServerError}
			}
		}()
		rec := &recorder{ResponseRecorder: httptest.NewRecorder()}
		if take {
			h.ServeHTTP(rec, req)
		} else {
			h.ServeHTTP(rec.ResponseRecorder, req)
		}
		done <- &callResult{status: rec.Code, body: rec.Body.Bytes(), result: rec.result}
	}()
	select {
	case res := <-done:
		if !res.ok() {
			n.failures.Add(1)
		}
		return res, nil
	case <-ctx.Done():
		n.failures.Add(1)
		return nil, serr.New(serr.Unavailable,
			"shard: shard %d did not answer %s %s before the coordinator deadline; partial results are not served",
			n.id, method, path)
	}
}

// fetch invokes a shard on a gather call and returns its 2xx reply as a
// result in typed columns: the result the handler handed back, or its body
// decoded (a handler that writes bytes — a fault-injecting one, or a shard
// across a real network). Non-2xx replies come back as the shard's own
// structured error; a body that does not decode is an Internal error naming
// the shard. Either way the gather checks the reply (checkReplies) before
// reading it.
func (c *Coordinator) fetch(ctx context.Context, n *node, method, path string, body []byte) (*wire.Result, error) {
	res, err := n.invoke(ctx, method, path, body, "application/json", true)
	if err != nil {
		c.shardTimeouts.Add(1)
		return nil, err
	}
	if !res.ok() {
		c.shardErrors.Add(1)
		return nil, errorFromShard(n.id, res.status, res.body)
	}
	if res.result != nil {
		return res.result, nil
	}
	// Cells decode by column type, so merge arithmetic never round-trips
	// large int64 values through float64.
	out, err := wire.DecodeTyped(res.body)
	if err != nil {
		return nil, serr.New(serr.Internal, "shard: shard %d sent an undecodable reply: %v", n.id, err)
	}
	return out, nil
}

// errorFromShard rebuilds the structured error a shard answered with, so the
// coordinator's reply carries the same kind, message, and SQL position.
func errorFromShard(shardID int, status int, body []byte) error {
	if e, ok := wire.ParseError(body); ok {
		return e
	}
	return serr.New(serr.Internal, "shard: shard %d answered %d with an unreadable error body", shardID, status)
}

// scatter fans one request wave out to the given shards concurrently and
// gathers the per-shard replies in shard order. The whole wave shares one
// deadline; the first shard failure (down, timed out, or answering an error
// status) cancels the remaining calls and is the wave's error, so a
// half-answered wave never yields a silently partial gather. Errors that
// arrive after that cancel are its consequences — deadline errors, or a Busy
// from a sibling abandoned at its admission gate — and never outrank the
// cause.
func (c *Coordinator) scatter(ctx context.Context, shards []int, build func(shard int) (method, path string, body []byte)) ([]reply, error) {
	c.scatters.Add(1)
	wctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()

	results := make([]reply, len(shards))
	var (
		mu    sync.Mutex
		cause error // the failure that cancelled the wave
		wg    sync.WaitGroup
	)
	for i, s := range shards {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			method, path, body := build(s)
			res, err := c.fetch(wctx, c.nodes[s], method, path, body)
			if err != nil {
				mu.Lock()
				if cause == nil {
					cause = err
					cancel()
				}
				mu.Unlock()
				return
			}
			results[i] = reply{shard: s, Result: res}
		}()
	}
	wg.Wait()
	if cause != nil {
		return nil, cause
	}
	return results, nil
}
