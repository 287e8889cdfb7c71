package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// smallSearch is a search small enough for fast tests but with enough
// generations to interrupt mid-run.
func smallSearch() SearchRequest {
	return SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 3,
	}
}

func getJSON(t testing.TB, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitJob follows the job's event stream until a snapshot satisfies pred,
// for at most a minute.
func waitJob(t *testing.T, base, id string, pred func(*JobJSON) bool) *JobJSON {
	t.Helper()
	return followJob(t, base, id, time.Now().Add(60*time.Second), pred)
}

// followJob waits, until deadline, for the job to reach a state that
// satisfies pred. It is driven by the job's /events SSE stream rather than
// a polling loop: the stream replays the job's history and then its live
// updates, and each snapshot satisfying pred is confirmed against the
// job's current state, which is what followJob returns — so a stale
// snapshot from the replayed history never ends the wait. The test fails
// at the deadline, or if the stream ends (the job went terminal) first.
func followJob(tb testing.TB, base, id string, deadline time.Time, pred func(*JobJSON) bool) *JobJSON {
	tb.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatalf("follow job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("job events status %d", resp.StatusCode)
	}
	var last JobJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		last = JobJSON{}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			tb.Fatalf("bad event payload for job %s: %v", id, err)
		}
		if !pred(&last) {
			continue
		}
		var cur JobJSON
		if resp := getJSON(tb, base+"/v1/jobs/"+id, &cur); resp.StatusCode != http.StatusOK {
			tb.Fatalf("job get status %d", resp.StatusCode)
		}
		if pred(&cur) {
			return &cur
		}
	}
	if ctx.Err() != nil {
		tb.Fatalf("job %s never satisfied predicate; last: %+v", id, last)
	}
	tb.Fatalf("job %s event stream ended (%v) without satisfying predicate; last: %+v", id, sc.Err(), last)
	return nil
}

func submitJob(t *testing.T, base string, req *SearchRequest) *JobJSON {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs/search", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var j JobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != "queued" {
		t.Fatalf("implausible submitted job: %s", body)
	}
	return &j
}

// TestAsyncSearchMatchesSync: a job's result must be byte-identical to the
// synchronous /v1/search answer for the same request, and completing the
// job warms the synchronous cache.
func TestAsyncSearchMatchesSync(t *testing.T) {
	req := smallSearch()

	// Reference from a separate fresh server, so neither path sees the
	// other's cache entries while computing.
	_, ref := newTestServer(t, Config{})
	resp, refBody := postJSON(t, ref.URL+"/v1/search", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", resp.StatusCode, refBody)
	}
	var want SearchResponse
	if err := json.Unmarshal(refBody, &want); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{})
	j := submitJob(t, hs.URL, &req)
	done := waitJob(t, hs.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" })
	if done.Attempts != 1 || done.Error != "" {
		t.Fatalf("job finished oddly: %+v", done)
	}
	wantBytes, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(done.Result, wantBytes) {
		t.Errorf("async result differs from sync:\nsync  %s\nasync %s", wantBytes, done.Result)
	}
	if done.Progress == nil {
		t.Error("done job has no progress payload")
	} else {
		var p SearchProgress
		if err := json.Unmarshal(done.Progress, &p); err != nil {
			t.Fatal(err)
		}
		if p.Generation != p.Generations || p.BestCycles == nil || *p.BestCycles != want.Cycles {
			t.Errorf("final progress %+v inconsistent with result cycles %g", p, want.Cycles)
		}
	}
	if !done.HasCheckpoint {
		t.Error("done job reports no checkpoint")
	}

	// The job warmed the synchronous search cache.
	resp, body := postJSON(t, hs.URL+"/v1/search", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sync status %d: %s", resp.StatusCode, body)
	}
	var cached SearchResponse
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Error("sync search after the job was not a cache hit")
	}
	if cached.Cycles != want.Cycles || cached.Encoding != want.Encoding {
		t.Errorf("cached sync answer differs: %g/%s vs %g/%s", cached.Cycles, cached.Encoding, want.Cycles, want.Encoding)
	}

	// The job shows up in the listing.
	var list JobListResponse
	getJSON(t, hs.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Errorf("job listing wrong: %+v", list)
	}
}

// stalledStream is an SSE response writer whose body writes wait until
// gate closes: an events client that stops reading.
type stalledStream struct {
	header  http.Header
	gate    chan struct{}
	blocked chan struct{} // closed at the first body write
	once    sync.Once
	body    bytes.Buffer
}

func (w *stalledStream) Header() http.Header { return w.header }
func (w *stalledStream) WriteHeader(int)     {}
func (w *stalledStream) Flush()              {}
func (w *stalledStream) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.gate
	return w.body.Write(p)
}

// TestJobEventsReplayAfterDrop: a client the manager dropped for falling
// behind still receives every event up to the terminal one, even when the
// job turned terminal while it was behind.
func TestJobEventsReplayAfterDrop(t *testing.T) {
	req := smallSearch()
	s, hs := newTestServer(t, Config{JobWorkers: -1}) // the job stays queued
	j := submitJob(t, hs.URL, &req)

	w := &stalledStream{header: http.Header{}, gate: make(chan struct{}), blocked: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil))
	}()
	<-w.blocked // the handler holds event 1 and waits on the client
	// Overflow the subscriber's buffer with real commits (a claim, then
	// progress updates under its lease) so the manager drops it, then end
	// the job while the client is still behind.
	c, err := s.store.ClaimNext("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	const published = 80
	for i := range published {
		if _, err := s.store.CommitUpdate(j.ID, c.Lease.Token, payload(t, fmt.Sprintf(`{"generation":%d}`, i)), jobs.Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.store.Complete(j.ID, c.Lease.Token, jobs.Cancelled, jobs.Payload{}, jobs.ErrCancelled.Error()); err != nil {
		t.Fatal(err)
	}
	close(w.gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("event stream of a cancelled job never ended")
	}

	var seqs []int
	var last JobJSON
	sc := bufio.NewScanner(&w.body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			n, _ := strconv.Atoi(v)
			seqs = append(seqs, n)
		}
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := 1 + 1 + published + 1 // submit, claim, the committed updates, cancel
	if len(seqs) != want || seqs[0] != 1 || seqs[len(seqs)-1] != want {
		t.Fatalf("stream carried %d events (first %v, last %v), want seqs 1..%d", len(seqs), seqs[:min(1, len(seqs))], seqs[max(0, len(seqs)-1):], want)
	}
	if last.State != "cancelled" {
		t.Errorf("last event state %q, want cancelled", last.State)
	}
}

// TestJobEventsSSE: the events endpoint streams the job's history as SSE
// with increasing ids, ending at a terminal state, and honors ?after=.
func TestJobEventsSSE(t *testing.T) {
	req := smallSearch()
	req.Seed = 7 // distinct design point from other tests
	_, hs := newTestServer(t, Config{})
	j := submitJob(t, hs.URL, &req)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	lastID, n := 0, 0
	var lastState string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			var id int
			if _, err := fmt.Sscanf(line, "id: %d", &id); err != nil {
				t.Fatalf("bad id line %q", line)
			}
			if id <= lastID {
				t.Fatalf("SSE ids not increasing: %d after %d", id, lastID)
			}
			lastID = id
		case strings.HasPrefix(line, "data: "):
			n++
			var ev JobJSON
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad event payload: %v in %q", err, line)
			}
			lastState = ev.State
		}
		if lastState == "done" || lastState == "failed" || lastState == "cancelled" {
			break
		}
	}
	if n == 0 || lastState != "done" {
		t.Fatalf("stream delivered %d events, last state %q; want terminal done", n, lastState)
	}

	// Replay after the last id: nothing new, stream ends immediately.
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + j.ID + "/events?after=" + strconv.Itoa(lastID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(rest), "data: ") {
		t.Errorf("after=%d replayed events: %q", lastID, rest)
	}

	if resp, _ := http.Get(hs.URL + "/v1/jobs/nope/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: status %d", resp.StatusCode)
	}
}

// TestJobCancel: cancelling a running job finalizes it as cancelled,
// with no result and its checkpoint kept. The runner is held once it has
// committed generation 1 until the DELETE has been answered, so the
// cancel meets a running job however fast the search runs.
func TestJobCancel(t *testing.T) {
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 3, TileRounds: 8, TopK: 2, Seed: 11,
	}
	s, hs := newTestServer(t, Config{})
	accepted := make(chan struct{})
	s.afterUpdate = func(ctx context.Context, generation int) {
		if generation == 1 {
			select {
			case <-accepted:
			case <-ctx.Done():
			}
		}
	}
	j := submitJob(t, hs.URL, &req)
	held := waitJob(t, hs.URL, j.ID, func(j *JobJSON) bool {
		var p SearchProgress
		return j.State == "running" && json.Unmarshal(j.Progress, &p) == nil && p.Generation == 1
	})
	if !held.HasCheckpoint {
		t.Fatalf("job held at generation 1 without a checkpoint")
	}

	httpReq, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(accepted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	got := waitJob(t, hs.URL, j.ID, func(j *JobJSON) bool { return j.State == "cancelled" })
	if got.Result != nil || !got.HasCheckpoint {
		t.Errorf("cancelled job: result %s, checkpoint %v; want no result and the checkpoint kept", got.Result, got.HasCheckpoint)
	}

	del, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d", resp.StatusCode)
	}
}

// TestJobSubmitValidation: invalid requests fail at submit time with a
// 400 instead of becoming failed jobs.
func TestJobSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	bad := SearchRequest{Arch: "edge", Workload: "no-such-workload"}
	resp, _ := postJSON(t, hs.URL+"/v1/jobs/search", &bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload: status %d, want 400", resp.StatusCode)
	}
	var list JobListResponse
	getJSON(t, hs.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected submit still created a job: %+v", list)
	}
	if resp := getJSON(t, hs.URL+"/v1/jobs/j00000042", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestJobMetricsScrape: the job gauges appear on /metrics and move with
// the job lifecycle.
func TestJobMetricsScrape(t *testing.T) {
	req := smallSearch()
	req.Seed = 13
	_, hs := newTestServer(t, Config{})
	j := submitJob(t, hs.URL, &req)
	waitJob(t, hs.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" })

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"tileflow_jobs_queue_depth 0\n",
		"tileflow_jobs_running 0\n",
		"tileflow_jobs_completed_total 1\n",
		"tileflow_jobs_failed_total 0\n",
		"tileflow_jobs_cancelled_total 0\n",
		"tileflow_job_checkpoint_age_seconds 0\n",
		`tileflow_requests_total{endpoint="jobs_submit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerRestartRecovery is the second half of the PR's acceptance
// gate: a server killed mid-job recovers the job on restart, resumes it
// from the checkpoint, and produces a result byte-identical to an
// uninterrupted run of the same request.
func TestServerRestartRecovery(t *testing.T) {
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 8, Generations: 6, TileRounds: 30, TopK: 2, Seed: 17,
	}
	// The first server's runner is held once it has committed this
	// generation, until the drain cancels it, so the drain interrupts the
	// search mid-way however fast it runs.
	const holdAt = 2

	// Control: the same job on an undisturbed server.
	ctl := New(Config{})
	ctlHS := httptest.NewServer(ctl.Handler())
	defer ctlHS.Close()
	cj := submitJob(t, ctlHS.URL, &req)
	want := waitJob(t, ctlHS.URL, cj.ID, func(j *JobJSON) bool { return j.State == "done" })

	// Interrupted run: durable store, drain mid-search, reopen.
	dir := t.TempDir()
	s1, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.afterUpdate = func(ctx context.Context, generation int) {
		if generation == holdAt {
			<-ctx.Done()
		}
	}
	hs1 := httptest.NewServer(s1.Handler())
	j := submitJob(t, hs1.URL, &req)
	interrupted := waitJob(t, hs1.URL, j.ID, func(j *JobJSON) bool {
		var p SearchProgress
		held := j.State == "running" && json.Unmarshal(j.Progress, &p) == nil && p.Generation == holdAt
		return held || j.State == "done" || j.State == "failed" || j.State == "cancelled"
	})
	if interrupted.State != "running" || !interrupted.HasCheckpoint {
		t.Fatalf("job not held at generation %d: state %s, checkpoint %v", holdAt, interrupted.State, interrupted.HasCheckpoint)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Close(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hs1.Close()

	// "Restart": a new server over the same data dir picks the job up.
	s2, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	got := waitJob(t, hs2.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" })
	if got.Attempts < 2 {
		t.Errorf("recovered job ran %d attempts; want ≥ 2 (it must have been interrupted)", got.Attempts)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("recovered result differs from uninterrupted run:\nwant %s\ngot  %s", want.Result, got.Result)
	}
	closeCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s2.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
}

// payload parses a test's JSON text into a jobs.Payload.
func payload(t *testing.T, s string) jobs.Payload {
	t.Helper()
	p, err := jobs.ParsePayload("test", json.RawMessage(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}
