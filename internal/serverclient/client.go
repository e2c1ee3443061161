// Package serverclient is the Go client for the smoked HTTP API
// (internal/server): table ingest, SQL queries, and session-scoped retained
// results with bound backward/forward traces. The server's own tests, the
// serve bench experiment's load generator, and external Go tools all speak
// through it. It declares no JSON shape of its own: the request, response
// and error bodies are internal/wire's, re-exported here under the names
// callers already use.
package serverclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"smoke/internal/wire"
)

// Client talks to one smoked server.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// Error is a non-2xx server reply, decoded from the uniform error body.
type Error struct {
	Status  int    // HTTP status code
	Kind    string // serr kind string ("invalid", "gone", ...)
	Message string
	Pos     int // byte offset into the SQL text, -1 if absent
}

func (e *Error) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Status, e.Kind, e.Message)
}

// The wire shapes, by the names this package has always exported. A Result
// handed back by the client holds row values as int64, float64, or string by
// column type (wire.DecodeResult).
type (
	Field        = wire.Field
	Result       = wire.Result
	QueryRequest = wire.QueryRequest
	TraceRequest = wire.TraceRequest
	Agg          = wire.Agg
)

// Health pings the server and returns its status map.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// CreateTable registers (or replaces) a table from schema + rows. pk may be
// "" for no primary key.
func (c *Client) CreateTable(ctx context.Context, name string, schema []Field, rows [][]any, pk string) error {
	return c.CreateTableDist(ctx, name, schema, rows, pk, "")
}

// CreateTableDist is CreateTable with an explicit placement against a
// sharded smoked (-shards N): dist "shard" partitions the rows by rid range
// across the shards, dist "replicate" (or "") registers a full copy on every
// shard. A single-node server ignores the parameter.
func (c *Client) CreateTableDist(ctx context.Context, name string, schema []Field, rows [][]any, pk, dist string) error {
	path := "/v1/tables/" + url.PathEscape(name)
	if dist != "" {
		path += "?" + url.Values{"dist": {dist}}.Encode()
	}
	return c.do(ctx, http.MethodPost, path, wire.Table{Schema: schema, Rows: rows, PK: pk}, nil)
}

// CreateTableCSV registers a table from CSV bytes (header record first).
// types is "int,float,..." per column, or "" to sniff.
func (c *Client) CreateTableCSV(ctx context.Context, name string, csvBody []byte, types, pk string) error {
	path := "/v1/tables/" + url.PathEscape(name)
	q := url.Values{}
	if types != "" {
		q.Set("types", types)
	}
	if pk != "" {
		q.Set("pk", pk)
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(csvBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	_, err = c.roundTrip(req)
	return err
}

// Query runs one stateless SQL statement (including EXPLAIN and unbound
// LINEAGE sources).
func (c *Client) Query(ctx context.Context, req QueryRequest) (*Result, error) {
	return c.result(ctx, http.MethodPost, "/v1/query", req)
}

// Session is a server-side session handle.
type Session struct {
	ID  string
	ttl int
	c   *Client
}

// Session returns a handle for an existing session id (e.g. one persisted by
// a previous process). No server round-trip is made; a dead id surfaces as
// 410/404 on first use.
func (c *Client) Session(id string) *Session { return &Session{ID: id, c: c} }

// NewSession opens a session.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	var out struct {
		ID  string `json:"id"`
		TTL int    `json:"ttl_seconds"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &Session{ID: out.ID, ttl: out.TTL, c: c}, nil
}

// TTLSeconds is the server's idle-session TTL at creation time.
func (s *Session) TTLSeconds() int { return s.ttl }

// Close deletes the session and every retained result in it.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(s.ID), nil, nil)
}

// Run executes a statement and retains its Result (with live capture) under
// name; later Trace calls bind to it.
func (s *Session) Run(ctx context.Context, name string, req QueryRequest) (*Result, error) {
	return s.c.result(ctx, http.MethodPost, s.path(name), req)
}

// Result fetches a retained result's rows.
func (s *Session) Result(ctx context.Context, name string) (*Result, error) {
	return s.c.result(ctx, http.MethodGet, s.path(name), nil)
}

// Trace runs a bound backward/forward trace against the retained result.
func (s *Session) Trace(ctx context.Context, name string, req TraceRequest) (*Result, error) {
	return s.c.result(ctx, http.MethodPost, s.path(name)+"/trace", req)
}

func (s *Session) path(name string) string {
	return "/v1/sessions/" + url.PathEscape(s.ID) + "/results/" + url.PathEscape(name)
}

// result is do for the endpoints that answer a result body, decoded by the
// result codec.
func (c *Client) result(ctx context.Context, method, path string, in any) (*Result, error) {
	data, err := c.send(ctx, method, path, in)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResult(data)
}

// do sends a JSON request and decodes a JSON reply (out may be nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	data, err := c.send(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	return wire.Decode(bytes.NewReader(data), out)
}

// send sends a JSON request (in may be nil) and returns the reply body.
func (c *Client) send(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.roundTrip(req)
}

// roundTrip sends req and returns a 2xx reply's body; any other status is
// an *Error.
func (c *Client) roundTrip(req *http.Request) ([]byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		e := &Error{Status: resp.StatusCode, Kind: "internal", Message: string(data), Pos: -1}
		if se, ok := wire.ParseError(data); ok {
			e.Kind, e.Message, e.Pos = se.Kind.String(), se.Msg, se.Pos
		}
		return nil, e
	}
	return data, nil
}
