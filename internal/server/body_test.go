package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/view"
)

// get fetches a daemon path over plain HTTP, so the test sees the
// response's framing rather than the client's reading of it.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return resp, body
}

// Every view of a done job goes out with a Content-Length equal to its
// body, and the bodies are the stored bytes and the rendered reports.
func TestViewBodiesCarryContentLength(t *testing.T) {
	s, c := newTestServer(t, nil)
	ctx := context.Background()
	spec := fastSpec("baseline")
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)
	p, err := s.st.Get(st.Key)
	if err != nil {
		t.Fatal(err)
	}
	page, err := view.HTML(p, s.topVars)
	if err != nil {
		t.Fatal(err)
	}
	ref := refProfileBytes(t, spec)
	cases := []struct {
		path string
		want []byte
	}{
		{"/api/v1/jobs/" + st.ID + "?view=profile", ref},
		{"/api/v1/profiles/" + string(st.Key), ref},
		{"/api/v1/jobs/" + st.ID + "?view=text", []byte(view.Text(p, s.topVars))},
		{"/api/v1/jobs/" + st.ID + "?view=html", []byte(page)},
	}
	for _, tc := range cases {
		resp, body := get(t, c.BaseURL+tc.path)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.path, cl, len(body))
		}
		if !bytes.Equal(body, tc.want) {
			t.Errorf("%s: body differs from the reference (%d vs %d bytes)", tc.path, len(body), len(tc.want))
		}
	}
}

// rawServer answers every request with the handler's own framing: it
// hijacks the connection, writes raw bytes and closes it.
func rawServer(t *testing.T, write func(w *bufio.ReadWriter)) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		write(rw)
		rw.Flush()
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Retries = -1
	return c
}

// A body of unknown length (chunked) is read to its end.
func TestClientReadsChunkedBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 8<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for part := range 8 {
			w.Write(want[part*len(want)/8 : (part+1)*len(want)/8])
			w.(http.Flusher).Flush()
		}
	}))
	defer ts.Close()
	resp, _ := get(t, ts.URL)
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 {
		t.Fatalf("test server did not chunk: length %d, encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	c := NewClient(ts.URL)
	got, err := c.do(context.Background(), http.MethodGet, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, want %d", len(got), len(want))
	}
}

// A connection that closes before the declared Content-Length is an
// error, not a short body.
func TestClientShortBodyIsError(t *testing.T) {
	for _, sent := range []int{0, 10} {
		c := rawServer(t, func(w *bufio.ReadWriter) {
			fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n%s", strings.Repeat("x", sent))
		})
		got, err := c.ProfileBytes(context.Background(), "job-000001")
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d of 1000 bytes: got %d bytes, err %v; want io.ErrUnexpectedEOF", sent, len(got), err)
		}
	}
}

// A declared length above maxPresizedBody is read as it arrives, not
// trusted for an up-front buffer.
func TestClientDoesNotPresizeHugeLength(t *testing.T) {
	c := rawServer(t, func(w *bufio.ReadWriter) {
		fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nshort", maxPresizedBody+1)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.ProfileBytes(context.Background(), "job-000001")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxPresizedBody/4 {
		t.Fatalf("reading a 5-byte body that declared %d bytes allocated %d bytes", maxPresizedBody+1, grew)
	}
}

// Fetching a stored profile costs about one copy of it: the handler
// streams the file and the client reads into one buffer of the declared
// length. Reading the file into a buffer in the handler and growing the
// client's buffer as the body arrives cost about six. The spec's file
// (about 80 KB) is large enough that a request's fixed cost, about
// 8 KB, does not hide the copies.
func TestProfileViewAllocationGuard(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Workload: "lulesh", Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, st.ID)
	body, err := c.ProfileBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	const fetches = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range fetches {
		if _, err := c.ProfileBytes(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFetch := float64(after.TotalAlloc-before.TotalAlloc) / fetches
	if limit := 2.5 * float64(len(body)); perFetch > limit {
		t.Fatalf("a ?view=profile fetch of %d bytes allocated %.0f bytes (%.2fx), want under %.0f (2.5x)",
			len(body), perFetch, perFetch/float64(len(body)), limit)
	}
	t.Logf("a ?view=profile fetch of %d bytes allocated %.0f bytes (%.2fx)", len(body), perFetch, perFetch/float64(len(body)))
}
