package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/advisor"
	"repro/internal/diff"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/view"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /api/v1/jobs            submit a job (Spec JSON body)
//	POST   /api/v1/jobs/{id}/advise  submit an optimizer run for a done job
//	GET    /api/v1/jobs            list jobs (?state= filters)
//	GET    /api/v1/jobs/{id}       job status (?view=text|html|profile|advice)
//	DELETE /api/v1/jobs/{id}       cancel a job
//	GET    /api/v1/profiles        list stored profile keys
//	GET    /api/v1/profiles/{key}  raw .numaprof bytes for a key
//	GET    /api/v1/diff?a=&b=      diff two jobs/keys (?view=text)
//	GET    /healthz                liveness
//	GET    /readyz                 readiness (503 while draining)
//	GET    /metrics                counters + latency histograms
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/jobs/{id}/advise", s.handleAdvise)
	mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/live", s.handleJobLive)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /api/v1/profiles", s.handleListProfiles)
	mux.HandleFunc("GET /api/v1/profiles/{key}", s.handleGetProfile)
	mux.HandleFunc("GET /api/v1/diff", s.handleDiff)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	job, err := s.Submit(spec)
	s.writeSubmitResult(w, job, err)
}

// writeSubmitResult maps a Submit outcome to the wire, shared by the
// plain submit and advise endpoints.
func (s *Server) writeSubmitResult(w http.ResponseWriter, job *Job, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		setRetryAfter(w, err)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrCircuitOpen):
		setRetryAfter(w, err)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrDraining):
		setRetryAfter(w, err)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

// setRetryAfter surfaces a Submit error's back-off hint as a
// Retry-After header (whole seconds, rounded up, at least 1 — clients
// without a hint still get a sane default).
func setRetryAfter(w http.ResponseWriter, err error) {
	d, ok := RetryAfterHint(err)
	if !ok {
		d = time.Second
	}
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	if f := State(r.URL.Query().Get("state")); f != "" {
		filtered := jobs[:0]
		for _, j := range jobs {
			if j.State == f {
				filtered = append(filtered, j)
			}
		}
		jobs = filtered
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(jobs), "jobs": jobs})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	switch v := r.URL.Query().Get("view"); v {
	case "", "status", "json":
		writeJSON(w, http.StatusOK, job.Status())
	case "advice":
		st := job.Status()
		if !st.Spec.Advise {
			writeError(w, http.StatusBadRequest, "job %s is not an advise job; POST /api/v1/jobs/%s/advise first", st.ID, st.ID)
			return
		}
		if st.State != StateDone {
			writeError(w, http.StatusConflict, "job %s is %s, not done", st.ID, st.State)
			return
		}
		blob, err := s.adviceReport(r.Context(), job)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "advice: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.Write(blob)
	case "text", "html", "profile":
		st := job.Status()
		if st.State != StateDone {
			writeError(w, http.StatusConflict, "job %s is %s, not done", st.ID, st.State)
			return
		}
		if st.Spec.Advise {
			// An advise job stores no profile under its own key; its
			// text view is the optimizer report, and the byte views
			// live under the per-remedy keys in that report.
			if v != "text" {
				writeError(w, http.StatusBadRequest,
					"advise job %s has no %s view; use ?view=advice and the per-remedy profile keys", st.ID, v)
				return
			}
			s.serveAdviceText(r.Context(), w, job)
			return
		}
		s.serveProfileView(r.Context(), w, st.Key, v)
	default:
		writeError(w, http.StatusBadRequest, "unknown view %q (status|text|html|profile|advice)", v)
	}
}

// serveAdviceText renders a done advise job's report as plain text.
func (s *Server) serveAdviceText(ctx context.Context, w http.ResponseWriter, job *Job) {
	blob, err := s.adviceReport(ctx, job)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "advice: %v", err)
		return
	}
	var rep advisor.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		writeError(w, http.StatusInternalServerError, "advice: %v", err)
		return
	}
	body := rep.Render()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	io.WriteString(w, body)
}

// serveProfileView renders a stored profile as text, HTML, or raw
// measurement bytes. Every body goes out with its Content-Length, so a
// client can read it into one buffer of that size.
func (s *Server) serveProfileView(ctx context.Context, w http.ResponseWriter, k store.Key, kind string) {
	_, done := telemetry.Timed(ctx, "pipeline.render_view", telemetry.String("kind", kind))
	defer done()
	if kind == "profile" {
		f, size, err := s.st.File(k)
		if err != nil {
			writeError(w, http.StatusNotFound, "profile %s: %v", k, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		// The LimitReader hides *os.File's WriteTo, whose generic
		// fallback copies through a fresh 32 KiB buffer; io.Copy then
		// hands the reader to the response's ReadFrom, which passes a
		// limited file on to the connection's sendfile. A copy that
		// fails leaves the body short of its Content-Length, which the
		// client reports as an error.
		io.Copy(w, io.LimitReader(f, size))
		return
	}
	p, err := s.st.Get(k)
	if err != nil {
		writeError(w, http.StatusNotFound, "profile %s: %v", k, err)
		return
	}
	var body string
	switch kind {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body = view.Text(p, s.topVars)
	case "html":
		if body, err = view.HTML(p, s.topVars); err != nil {
			writeError(w, http.StatusInternalServerError, "render: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	io.WriteString(w, body)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	keys, err := s.st.Keys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "list profiles: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(keys), "keys": keys})
}

func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	k := store.Key(r.PathValue("key"))
	if !k.Valid() {
		writeError(w, http.StatusBadRequest, "invalid profile key %q", k)
		return
	}
	s.serveProfileView(r.Context(), w, k, "profile")
}

// resolveProfileRef turns a jobs ID or a store key into a loadable
// store key. It returns an HTTP status and message on failure.
func (s *Server) resolveProfileRef(ref string) (store.Key, int, string) {
	if job, ok := s.JobByID(ref); ok {
		st := job.Status()
		if st.State != StateDone {
			return "", http.StatusConflict, fmt.Sprintf("job %s is %s, not done", st.ID, st.State)
		}
		return st.Key, 0, ""
	}
	k := store.Key(ref)
	if !k.Valid() {
		return "", http.StatusNotFound, fmt.Sprintf("no job or profile %q", ref)
	}
	if !s.st.Has(k) {
		return "", http.StatusNotFound, fmt.Sprintf("no profile %s", k)
	}
	return k, 0, ""
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, b := q.Get("a"), q.Get("b")
	if a == "" || b == "" {
		writeError(w, http.StatusBadRequest, "diff needs ?a=<job|key>&b=<job|key>")
		return
	}
	ka, code, msg := s.resolveProfileRef(a)
	if code != 0 {
		writeError(w, code, "%s", msg)
		return
	}
	kb, code, msg := s.resolveProfileRef(b)
	if code != 0 {
		writeError(w, code, "%s", msg)
		return
	}
	pa, err := s.st.Get(ka)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load %s: %v", ka, err)
		return
	}
	pb, err := s.st.Get(kb)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "load %s: %v", kb, err)
		return
	}
	res := diff.Compare(pa, pb, a, b, diff.Options{})
	switch v := q.Get("view"); v {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.Render())
	case "", "json":
		writeJSON(w, http.StatusOK, res)
	default:
		writeError(w, http.StatusBadRequest, "unknown view %q (json|text)", v)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"queue_depth": len(s.queue),
		"queue_cap":   cap(s.queue),
	})
}

// handleMetrics serves the instrument snapshot as JSON by default;
// ?format=text switches to the same snapshot's flat `name value`
// exposition, for scrapers that want diffable lines instead of JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, s.Metrics())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.Metrics().WriteText(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (json|text)", f)
	}
}
