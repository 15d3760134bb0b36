package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/progress"
	"repro/internal/telemetry"
)

// Client is a minimal Go client for a numad daemon, shared by
// `numaprof -submit` and examples/service-client. It retries transport
// errors and 429/503 responses with bounded, jittered backoff, honoring
// the daemon's Retry-After hint — so a submission survives a briefly
// overloaded or restarting daemon. Every request it issues is safe to
// repeat: submissions are content-addressed (a duplicate deduplicates
// server-side) and the rest are reads or idempotent cancels.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:7077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retries bounds retry attempts beyond the first (0:
	// DefaultClientRetries; negative disables retrying).
	Retries int
	// RetryBase is the backoff before the first retry when the daemon
	// sent no Retry-After hint (0: 200ms); it doubles per attempt.
	RetryBase time.Duration
}

// DefaultClientRetries is the retry bound when Client.Retries is 0.
const DefaultClientRetries = 3

// NewClient builds a client for a daemon base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes the daemon's JSON error body into a Go error.
func apiError(resp *http.Response, body []byte) error {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		return fmt.Errorf("daemon: %s (HTTP %d)", eb.Error, resp.StatusCode)
	}
	return fmt.Errorf("daemon: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// retries resolves the retry budget.
func (c *Client) retries() int {
	switch {
	case c.Retries == 0:
		return DefaultClientRetries
	case c.Retries < 0:
		return 0
	}
	return c.Retries
}

// retryDelay picks the wait before retry `attempt`: the daemon's
// Retry-After hint when it sent one, else RetryBase doubled per attempt
// with up to 25% deterministic jitter (per-path, so concurrent clients
// spread out but a given call replays).
func (c *Client) retryDelay(resp *http.Response, attempt int, path string) time.Duration {
	if resp != nil {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	base := c.RetryBase
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	d := base << attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	h = (h ^ uint64(attempt)) * 1099511628211
	return d + time.Duration(h%uint64(d/4+1))
}

// retryableStatus reports whether the daemon's refusal is temporary.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do issues one request, retrying transient refusals, and returns the
// body of a 2xx response.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.doInto(ctx, method, path, body, nil)
}

// doInto is do reading the body into buf when buf has room for it (see
// readBody).
func (c *Client) doInto(ctx context.Context, method, path string, body, buf []byte) ([]byte, error) {
	maxRetries := c.retries()
	for attempt := 0; ; attempt++ {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, r)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			// Transport-level failure: the daemon may be restarting.
			if attempt < maxRetries && ctx.Err() == nil {
				if sleepCtx(ctx, c.retryDelay(nil, attempt, path)) {
					continue
				}
			}
			return nil, err
		}
		data, err := readBody(resp, buf)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 == 2 {
			return data, nil
		}
		if retryableStatus(resp.StatusCode) && attempt < maxRetries {
			if sleepCtx(ctx, c.retryDelay(resp, attempt, path)) {
				continue
			}
		}
		return nil, apiError(resp, data)
	}
}

// maxPresizedBody bounds the buffer readBody allocates up front from a
// response's declared Content-Length.
const maxPresizedBody = 64 << 20

// readBody reads a response body. A declared length up to
// maxPresizedBody is read into buf when its capacity holds it, and into
// one new buffer of exactly that size when not, and a body that ends
// short of it is io.ErrUnexpectedEOF; an unknown or larger length is
// read as it arrives.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxPresizedBody {
		return io.ReadAll(resp.Body)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	data := buf[:n]
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return data, nil
}

// sleepCtx waits d unless ctx ends first; it reports whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec Spec) (JobStatus, error) {
	var st JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	data, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	data, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	data, err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// viewPath is the path of one rendered view of a done job.
func viewPath(id, kind string) string {
	return "/api/v1/jobs/" + url.PathEscape(id) + "?view=" + kind
}

// view fetches one rendered view of a done job.
func (c *Client) view(ctx context.Context, id, kind string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, viewPath(id, kind), nil)
}

// bodyBufs lends getString its read buffers, each kept at the largest
// body it has held.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// getString fetches a body as a string. The body is read into a pooled
// buffer, so the returned string is the one copy of it the client
// keeps.
func (c *Client) getString(ctx context.Context, path string) (string, error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, err := c.doInto(ctx, http.MethodGet, path, nil, *bp)
	if cap(b) > cap(*bp) {
		*bp = b[:0]
	}
	return string(b), err
}

// Text fetches the text report of a done job.
func (c *Client) Text(ctx context.Context, id string) (string, error) {
	return c.getString(ctx, viewPath(id, "text"))
}

// HTMLReport fetches the HTML report of a done job.
func (c *Client) HTMLReport(ctx context.Context, id string) (string, error) {
	return c.getString(ctx, viewPath(id, "html"))
}

// ProfileBytes fetches the raw .numaprof measurement bytes of a done
// job — byte-identical to `numaprof -profile` output for the same spec.
func (c *Client) ProfileBytes(ctx context.Context, id string) ([]byte, error) {
	return c.view(ctx, id, "profile")
}

// StreamEvent mirrors one SSE event from GET /api/v1/jobs/{id}/events:
// a lifecycle transition (Job set), a progress snapshot (Snapshot
// set), or the daemon's drain marker (type "shutdown"). Every event
// carries the run's latest convergence verdict.
type StreamEvent struct {
	ID         uint64             `json:"id"`
	Type       string             `json:"type"`
	Job        *JobStatus         `json:"job,omitempty"`
	Snapshot   *progress.Snapshot `json:"snapshot,omitempty"`
	Converged  bool               `json:"converged"`
	Confidence float64            `json:"confidence"`
}

// Follow subscribes to a job's live event stream and invokes fn for
// every event until the job reaches a terminal state, then returns the
// terminal status. It rides the same retry policy as the rest of the
// client: transport errors, retryable statuses, and daemon restarts
// (terminal `shutdown` events) reconnect with backoff, resuming from
// the last seen event ID so no terminal transition is missed; the
// retry budget resets whenever a connection makes progress. fn may be
// nil to just wait.
func (c *Client) Follow(ctx context.Context, id string, fn func(StreamEvent)) (JobStatus, error) {
	path := "/api/v1/jobs/" + url.PathEscape(id) + "/events"
	maxRetries := c.retries()
	var lastID uint64
	for attempt := 0; ; {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return JobStatus{}, err
		}
		req.Header.Set("Accept", "text/event-stream")
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			if attempt < maxRetries && ctx.Err() == nil && sleepCtx(ctx, c.retryDelay(nil, attempt, path)) {
				attempt++
				continue
			}
			return JobStatus{}, err
		}
		if resp.StatusCode/100 != 2 {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if retryableStatus(resp.StatusCode) && attempt < maxRetries && sleepCtx(ctx, c.retryDelay(resp, attempt, path)) {
				attempt++
				continue
			}
			return JobStatus{}, apiError(resp, data)
		}
		st, terminal, progressed := c.consumeEvents(resp.Body, &lastID, fn)
		resp.Body.Close()
		if terminal {
			if st != nil {
				return *st, nil
			}
			// Terminal event without an embedded status (shouldn't
			// happen for job terminals): fetch it.
			return c.Job(ctx, id)
		}
		// Stream ended without a job terminal: daemon drained
		// (shutdown event) or the connection dropped. Reconnect.
		if progressed {
			attempt = 0
		}
		if attempt >= maxRetries || ctx.Err() != nil {
			return JobStatus{}, fmt.Errorf("daemon: event stream for %s ended before a terminal event", id)
		}
		if !sleepCtx(ctx, c.retryDelay(nil, attempt, path)) {
			return JobStatus{}, ctx.Err()
		}
		attempt++
	}
}

// consumeEvents parses one SSE connection's data lines, forwarding
// each event to fn and tracking the resume cursor. It returns the
// job's terminal status once a done/failed/canceled event arrives,
// whether such a terminal arrived, and whether any event was received
// at all (retry-budget reset).
func (c *Client) consumeEvents(body io.Reader, lastID *uint64, fn func(StreamEvent)) (st *JobStatus, terminal, progressed bool) {
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// The payload duplicates the id and event-type framing lines,
		// so data lines alone carry the full event.
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &ev); err != nil {
			continue
		}
		if ev.ID > *lastID {
			*lastID = ev.ID
		}
		progressed = true
		if fn != nil {
			fn(ev)
		}
		switch ev.Type {
		case progress.EventDone, progress.EventFailed, progress.EventCanceled:
			return ev.Job, true, true
		case progress.EventShutdown:
			// Daemon drained mid-job: reconnect after it restarts.
			return nil, false, true
		}
	}
	return nil, false, progressed
}

// Advise submits an optimizer run for a finished job and returns the
// accepted advise job's status. Like Submit, it rides do's retry loop:
// transport errors and 429/503 refusals back off honoring the daemon's
// Retry-After hint, and the advise job is content-addressed
// server-side, so a repeated request deduplicates instead of
// re-running.
func (c *Client) Advise(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	data, err := c.do(ctx, http.MethodPost, "/api/v1/jobs/"+url.PathEscape(id)+"/advise", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// AdviseResult fetches a done advise job's optimizer report: findings,
// the ranked remedies with predicted and measured speedups, the
// composite plan, and the best measured remedy.
func (c *Client) AdviseResult(ctx context.Context, id string) (*advisor.Report, error) {
	data, err := c.view(ctx, id, "advice")
	if err != nil {
		return nil, err
	}
	var rep advisor.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// DiffText diffs two jobs (or profile keys) and returns the rendered
// comparison.
func (c *Client) DiffText(ctx context.Context, a, b string) (string, error) {
	q := url.Values{"a": {a}, "b": {b}, "view": {"text"}}
	return c.getString(ctx, "/api/v1/diff?"+q.Encode())
}

// Metrics fetches the daemon's instrument snapshot.
func (c *Client) Metrics(ctx context.Context) (telemetry.RegistrySnapshot, error) {
	var m telemetry.RegistrySnapshot
	data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}
