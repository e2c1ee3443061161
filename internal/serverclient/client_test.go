package serverclient_test

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"smoke/internal/serr"
	"smoke/internal/serverclient"
	"smoke/internal/storage"
	"smoke/internal/wire"
)

// serve starts an httptest server answering every request with h and returns
// a client for it.
func serve(t *testing.T, h http.HandlerFunc) *serverclient.Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return serverclient.New(ts.URL, ts.Client())
}

// asError unwraps err as the client's structured reply error.
func asError(t *testing.T, err error) *serverclient.Error {
	t.Helper()
	var se *serverclient.Error
	if !errors.As(err, &se) {
		t.Fatalf("want *serverclient.Error, got %T: %v", err, err)
	}
	return se
}

// A structured error body becomes an *Error carrying the status, the kind
// and the SQL position the server sent.
func TestStructuredErrorBody(t *testing.T) {
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, serr.At(serr.Invalid, 7, "bad token"))
	})
	_, err := c.Query(context.Background(), serverclient.QueryRequest{SQL: "SELECT"})
	se := asError(t, err)
	if se.Status != 400 || se.Kind != "invalid" || se.Pos != 7 || se.Message != "bad token (at offset 7)" {
		t.Fatalf("error = %+v", se)
	}
	c = serve(t, func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, serr.New(serr.Gone, "session expired"))
	})
	se = asError(t, c.Session("s1").Close(context.Background()))
	if se.Status != 410 || se.Kind != "gone" || se.Pos != -1 {
		t.Fatalf("error = %+v", se)
	}
}

// A 5xx whose body is not the error shape (a proxy's text page) still
// becomes an *Error: kind internal, the body as its message.
func TestNonJSONErrorBody(t *testing.T) {
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream went away", http.StatusBadGateway)
	})
	_, err := c.Health(context.Background())
	se := asError(t, err)
	if se.Status != 502 || se.Kind != "internal" || se.Message != "upstream went away\n" || se.Pos != -1 {
		t.Fatalf("error = %+v", se)
	}
}

// A result holding NaN is answered as a structured 422 the client decodes,
// not as a 200 with an empty body (which the client could only report as
// EOF).
func TestNonFiniteResultIsStructured(t *testing.T) {
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		rel := storage.NewRelation("r", storage.Schema{{Name: "x", Type: storage.TFloat}}, 0)
		rel.AppendRow(math.NaN())
		wire.WriteJSON(w, http.StatusOK, wire.Rows(rel))
	})
	res, err := c.Query(context.Background(), serverclient.QueryRequest{SQL: "SELECT"})
	if res != nil {
		t.Fatalf("a non-finite result decoded as %+v", res)
	}
	if se := asError(t, err); se.Status != 422 || se.Kind != "unsupported" {
		t.Fatalf("error = %+v", se)
	}
}

// Trace seeds keep their meaning across the wire: nil rids (trace every
// row) arrive as nil, an empty list (trace nothing) as an empty list.
func TestNilAndEmptyRidsSurvive(t *testing.T) {
	var got []int64
	var decoded bool
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		var req wire.TraceRequest
		if err := wire.DecodeRequest(r.Body, &req); err != nil {
			wire.WriteError(w, err)
			return
		}
		got, decoded = req.Rids, true
		wire.WriteJSON(w, http.StatusOK, wire.Result{Rows: [][]any{}})
	})
	sess := c.Session("s1")
	for _, rids := range [][]int64{nil, {}, {3, 1}} {
		decoded = false
		if _, err := sess.Trace(context.Background(), "r", serverclient.TraceRequest{
			Direction: "backward", Table: "t", Rids: rids}); err != nil {
			t.Fatal(err)
		}
		if !decoded || (got == nil) != (rids == nil) || len(got) != len(rids) {
			t.Fatalf("sent rids %#v, the server decoded %#v", rids, got)
		}
	}
}

// An int64 beyond float64's 2^53 integer range comes back bit-exact:
// decoded as a json.Number and normalized to int64 by column type.
func TestLargeIntRoundTrip(t *testing.T) {
	const big = int64(1)<<53 + 1
	c := serve(t, func(w http.ResponseWriter, r *http.Request) {
		rel := storage.NewRelation("r", storage.Schema{{Name: "k", Type: storage.TInt}, {Name: "f", Type: storage.TFloat}}, 0)
		rel.AppendRow(big, 0.5)
		rel.AppendRow(int64(math.MinInt64), -2.25)
		wire.WriteJSON(w, http.StatusOK, wire.Rows(rel))
	})
	res, err := c.Query(context.Background(), serverclient.QueryRequest{SQL: "SELECT"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != big || res.Rows[0][1] != 0.5 || res.Rows[1][0] != int64(math.MinInt64) || res.Rows[1][1] != -2.25 {
		t.Fatalf("rows = %#v", res.Rows)
	}
}

// Sequential requests through one Client reuse one connection, including
// when the request body and the chunked reply body are over 2 KiB each: the
// client reads every reply to its end and closes it.
func TestClientReusesConnection(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.QueryRequest
		if err := wire.DecodeRequest(r.Body, &req); err != nil {
			wire.WriteError(w, err)
			return
		}
		rel := storage.NewRelation("r", storage.Schema{{Name: "sql", Type: storage.TString}}, 2)
		rel.Cols[0].Strs[0], rel.Cols[0].Strs[1] = req.SQL, req.SQL
		wire.WriteJSON(w, http.StatusOK, wire.Rows(rel))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := serverclient.New(ts.URL, ts.Client())
	sql := "SELECT " + strings.Repeat("x", 3<<10)
	for i := 0; i < 50; i++ {
		res, err := c.Query(context.Background(), serverclient.QueryRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if res.N != 2 || res.Rows[1][0] != sql {
			t.Fatalf("request %d: reply %d rows", i, res.N)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("50 sequential requests opened %d connections, want 1", n)
	}
}
