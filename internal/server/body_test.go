package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/store"
	"repro/internal/telemetry"
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
	other, err := c.Submit(ctx, fastSpec("interleave"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, other.ID)
	po, err := s.st.Get(other.Key)
	if err != nil {
		t.Fatal(err)
	}
	report := diff.Compare(p, po, st.ID, other.ID, diff.Options{}).Render()
	ref := refProfileBytes(t, spec)
	cases := []struct {
		path string
		want []byte
	}{
		{"/api/v1/jobs/" + st.ID + "?view=profile", ref},
		{"/api/v1/profiles/" + string(st.Key), ref},
		{"/api/v1/jobs/" + st.ID + "?view=text", []byte(view.Text(p, s.topVars))},
		{"/api/v1/jobs/" + st.ID + "?view=html", []byte(page)},
		{"/api/v1/diff?a=" + st.ID + "&b=" + other.ID + "&view=text", []byte(report)},
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
	// net/http sizes a body under its 2 KB pre-chunking buffer itself,
	// and the diff report here is that small, so check what the
	// handler sets, through a recorder, which adds no header.
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: the handler set Content-Length %q for a %d-byte body", tc.path, cl, rec.Body.Len())
		}
	}
}

// A second fetch of the text or HTML view serves the view file the
// first one wrote: it decodes nothing, renders nothing and returns the
// first fetch's bytes. The store keeps no profile in memory, so a
// render would decode. The profile listing shows profiles only.
func TestRepeatViewFetchesServeTheViewFile(t *testing.T) {
	st0, err := store.Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, func(o *Options) { o.Store = st0 })
	job, err := c.Submit(context.Background(), fastSpec("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, c, job.ID)
	decodes := telemetry.Default.Counter("profio_loads_total").Value
	for _, kind := range []string{"text", "html"} {
		path := c.BaseURL + "/api/v1/jobs/" + job.ID + "?view=" + kind
		_, first := get(t, path)
		before, renders := decodes(), s.st.Stats().ViewRenders
		_, second := get(t, path)
		if n := decodes() - before; n != 0 {
			t.Errorf("second %s fetch decoded %d times, want 0", kind, n)
		}
		if n := s.st.Stats().ViewRenders - renders; n != 0 {
			t.Errorf("second %s fetch rendered %d times, want 0", kind, n)
		}
		if !bytes.Equal(second, first) {
			t.Errorf("second %s fetch differs from the first", kind)
		}
	}
	if st := s.st.Stats(); st.ViewRenders != 2 || st.ViewHits != 2 {
		t.Fatalf("store stats = %+v, want 2 view renders and 2 view hits", st)
	}
	views, err := filepath.Glob(filepath.Join(st0.Dir(), "*"+store.ViewExt))
	if err != nil || len(views) != 2 {
		t.Fatalf("view files %v (err %v), want 2", views, err)
	}
	_, body := get(t, c.BaseURL+"/api/v1/profiles")
	var list struct {
		Count int         `json:"count"`
		Keys  []store.Key `json:"keys"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Keys) != 1 || list.Keys[0] != job.Key {
		t.Fatalf("profile listing %s, want the one key %s", body, job.Key)
	}
	if _, err := os.Stat(st0.Path(job.Key)); err != nil {
		t.Fatal(err)
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

// Client.Text and Client.HTMLReport copy a body once: it is read into
// a pooled buffer, and the string they return is the one copy they
// make. Converting a fresh read buffer to the string copied it twice.
// The server sends a fixed 256 KiB body, so what a fetch allocates is
// the client's, and a request's fixed cost, a few KB, does not hide a
// copy.
func TestTextViewAllocationGuard(t *testing.T) {
	page := strings.Repeat("lpi_NUMA 0.0421  NUMA_MISMATCH 1234567\n", 256<<10/40)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		io.WriteString(w, page)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	for name, fetch := range map[string]func(context.Context, string) (string, error){
		"Text": c.Text, "HTMLReport": c.HTMLReport,
	} {
		if got, err := fetch(ctx, "job-000001"); err != nil || got != page {
			t.Fatalf("%s: %d bytes, err %v; want the %d-byte page", name, len(got), err, len(page))
		}
		const fetches = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range fetches {
			if _, err := fetch(ctx, "job-000001"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perFetch := float64(after.TotalAlloc-before.TotalAlloc) / fetches
		if limit := 1.5 * float64(len(page)); perFetch > limit {
			t.Errorf("a %s fetch of %d bytes allocated %.0f bytes (%.2fx), want under %.0f (1.5x)",
				name, len(page), perFetch, perFetch/float64(len(page)), limit)
		}
		t.Logf("a %s fetch of %d bytes allocated %.0f bytes (%.2fx)", name, len(page), perFetch, perFetch/float64(len(page)))
	}
}
