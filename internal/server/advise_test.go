package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// rawPost hits the advise endpoint without the client's status
// decoding, so the table can assert exact status codes.
func rawPost(t *testing.T, c *Client, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(c.BaseURL+path, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// The /advise endpoint's refusal table: unknown job, non-terminal job,
// sweep job, double-advise — then the happy path end to end.
func TestAdviseEndpointTable(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{})
	gated := false
	_, c := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.BeforeRun = func(j *Job) {
			if j.spec.Workload == "blackscholes" && j.spec.Strategy == "guided" && !gated {
				gated = true // single worker: no concurrent BeforeRun
				close(running)
				<-release
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// 404: unknown job.
	resp, body := rawPost(t, c, "/api/v1/jobs/job-999999/advise")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404 (%s)", resp.StatusCode, body)
	}

	// 409: a job still running (held at the gate).
	held, err := c.Submit(ctx, Spec{Workload: "blackscholes", Strategy: "guided"})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	resp, body = rawPost(t, c, "/api/v1/jobs/"+held.ID+"/advise")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running job: status %d, want 409 (%s)", resp.StatusCode, body)
	}
	close(release)
	if _, err := c.Follow(ctx, held.ID, nil); err != nil {
		t.Fatal(err)
	}

	// 400: sweeps have no single baseline.
	sweep, err := c.Submit(ctx, Spec{Workload: "blackscholes", Strategy: "baseline,interleave"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Follow(ctx, sweep.ID, nil); err != nil {
		t.Fatal(err)
	}
	resp, body = rawPost(t, c, "/api/v1/jobs/"+sweep.ID+"/advise")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep job: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// Happy path: profile LULESH, advise it, and read the report back.
	target, err := c.Submit(ctx, Spec{Workload: "lulesh", Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Follow(ctx, target.ID, nil); err != nil || st.State != StateDone {
		t.Fatalf("target job: %+v, %v", st, err)
	}
	adv, err := c.Advise(ctx, target.ID)
	if err != nil {
		t.Fatalf("advise: %v", err)
	}
	if adv.ID == target.ID || !adv.Spec.Advise {
		t.Fatalf("advise job not distinct: %+v", adv)
	}
	st, err := c.Follow(ctx, adv.ID, nil)
	if err != nil || st.State != StateDone {
		t.Fatalf("advise job: %+v, %v", st, err)
	}
	if len(st.Cells) == 0 {
		t.Fatal("advise job exposed no candidate cells")
	}
	rep, err := c.AdviseResult(ctx, adv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoAdvice || len(rep.Remedies) == 0 {
		t.Fatalf("LULESH advise produced no remedies: %+v", rep.Advice)
	}
	measured := false
	for _, rem := range rep.Remedies {
		if rem.MeasuredOK {
			measured = true
			if rem.Key == "" {
				t.Fatalf("measured remedy %s has no profile key", rem.Kind)
			}
		}
	}
	if !measured || rep.Best == nil {
		t.Fatalf("no measured remedy in report: %+v", rep.Remedies)
	}

	// 400: advising the advise job.
	resp, body = rawPost(t, c, "/api/v1/jobs/"+adv.ID+"/advise")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double advise: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// The text view renders the optimizer report, not a profile.
	text, err := c.Text(ctx, adv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "NUMA optimizer") || !strings.Contains(text, "best measured:") {
		t.Fatalf("advise text view is not the optimizer report:\n%s", text)
	}

	// A second advise of the same target dedupes end to end: the
	// baseline and every candidate replay from the store.
	adv2, err := c.Advise(ctx, target.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Follow(ctx, adv2.ID, nil)
	if err != nil || st2.State != StateDone {
		t.Fatalf("second advise: %+v, %v", st2, err)
	}
	if !st2.CacheHit {
		t.Fatalf("second advise recomputed: %+v", st2)
	}

	// Advisor instruments surfaced on /metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requests, done := must(t, m.Counters, "jobs_advise_requests_total"), must(t, m.Counters, "jobs_advise_done_total")
	if applied := must(t, m.Counters, "jobs_remedies_applied_total"); requests < 2 || done < 2 || applied == 0 {
		t.Fatalf("advisor metrics not populated: requests %d, done %d, remedies applied %d", requests, done, applied)
	}
	must(t, m.Histograms, "job_advise_rerun")
}

// Two advise runs over the same target — one live, one replayed from
// the store — must serve byte-identical advice JSON and text.
func TestAdviseReportDeterministic(t *testing.T) {
	_, c := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	target, err := c.Submit(ctx, Spec{Workload: "lulesh", Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Follow(ctx, target.ID, nil); err != nil {
		t.Fatal(err)
	}

	var blobs [][]byte
	var texts []string
	for i := 0; i < 2; i++ {
		adv, err := c.Advise(ctx, target.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Follow(ctx, adv.ID, nil); err != nil || st.State != StateDone {
			t.Fatalf("advise run %d: %+v, %v", i, st, err)
		}
		blob, err := c.view(ctx, adv.ID, "advice")
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		text, err := c.Text(ctx, adv.ID)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("advice JSON diverged between live and replayed runs")
	}
	if texts[0] != texts[1] {
		t.Fatal("advice text diverged between live and replayed runs")
	}
}

// A spec that asks for advise directly must refuse sweeps and disabled
// first-touch tracking at validation time.
func TestAdviseSpecValidation(t *testing.T) {
	off := false
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"sweep", Spec{Workload: "lulesh,amg2006", Advise: true}, "sweep"},
		{"strategy sweep", Spec{Workload: "lulesh", Strategy: "baseline,guided", Advise: true}, "sweep"},
		{"first-touch off", Spec{Workload: "lulesh", FirstTouch: &off, Advise: true}, "first_touch"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// And the advise flag must keep a plain spec's key unchanged when
	// absent — the content-address compatibility contract.
	a := Spec{Workload: "lulesh"}
	b := Spec{Workload: "lulesh", Advise: true}
	if a.Key() == b.Key() {
		t.Fatal("advise spec shares the baseline's store key")
	}
}
