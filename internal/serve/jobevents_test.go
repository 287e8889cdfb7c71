package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// streamDeadline bounds each event-stream read below: a stream that never
// reaches its terminal event fails the test instead of hanging it.
const streamDeadline = 10 * time.Second

// readEventsWithin replays a job's SSE stream until its terminal event,
// failing the test if the stream ends or stalls before one.
func readEventsWithin(t *testing.T, base, id string) []JobJSON {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), streamDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []JobJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev JobJSON
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		evs = append(evs, ev)
		if jobs.State(ev.State).Terminal() {
			return evs
		}
	}
	t.Fatalf("event stream of %s ended without a terminal event after %d events (%v)", id, len(evs), ctx.Err())
	return nil
}

// openCoordinator opens a node that stores and leases jobs but runs none,
// on a test-driven clock, with one-minute leases.
func openCoordinator(t *testing.T) (*Server, *httptest.Server, *fleetClock) {
	t.Helper()
	clk := newFleetClock()
	s, err := Open(Config{Clock: clk.Now, JobWorkers: -1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeNode(t, s) })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, clk
}

// claimAs sends one fleet claim for node and returns the granted job, nil
// when the claim was answered empty.
func claimAs(t *testing.T, base, node string) *jobs.Job {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/fleet/claim", map[string]string{"node": node})
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusOK:
	default:
		t.Fatalf("claim by %s: status %d body %s", node, resp.StatusCode, body)
	}
	var cr struct {
		Job *jobs.Job `json:"job"`
	}
	if err := json.Unmarshal(body, &cr); err != nil || cr.Job == nil || cr.Job.Lease == nil {
		t.Fatalf("claim by %s: bad body %s (%v)", node, body, err)
	}
	return cr.Job
}

// TestClaimSweepPoisonEndsEventStream: a job whose only allowed attempt
// lost its lease, and which the next claim's lease sweep quarantines,
// ends its event stream with the poisoned snapshot.
func TestClaimSweepPoisonEndsEventStream(t *testing.T) {
	_, hs, clk := openCoordinator(t)
	req := smallSearch()
	req.MaxAttempts = 1
	j := submitJob(t, hs.URL, &req)
	if c := claimAs(t, hs.URL, "a"); c == nil || c.ID != j.ID {
		t.Fatalf("a claimed %+v, want %s", c, j.ID)
	}
	clk.Advance(2 * time.Minute)
	if c := claimAs(t, hs.URL, "b"); c != nil {
		t.Fatalf("b claimed %s; the sweep should have poisoned it", c.ID)
	}
	evs := readEventsWithin(t, hs.URL, j.ID)
	if last := evs[len(evs)-1]; last.State != "poisoned" || len(last.Trail) != 2 {
		t.Errorf("stream ended with %s (trail %q), want poisoned with the failover and the verdict", last.State, last.Trail)
	}
}

// TestClaimSweepRequeueShowsTrail: a job the next claim's lease sweep
// re-queues shows that queued snapshot, with the failover on its trail,
// between the expired run and the new one.
func TestClaimSweepRequeueShowsTrail(t *testing.T) {
	_, hs, clk := openCoordinator(t)
	req := smallSearch()
	j := submitJob(t, hs.URL, &req)
	claimAs(t, hs.URL, "a")
	clk.Advance(2 * time.Minute)
	b := claimAs(t, hs.URL, "b")
	if b == nil || b.ID != j.ID || b.Attempts != 2 {
		t.Fatalf("b claimed %+v, want %s on attempt 2", b, j.ID)
	}
	body := fmt.Sprintf(`{"id":%q,"token":%d,"state":"failed","error":"stop"}`, j.ID, b.Lease.Token)
	if resp, rb := postJSON(t, hs.URL+"/v1/fleet/complete", json.RawMessage(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d body %s", resp.StatusCode, rb)
	}

	evs := readEventsWithin(t, hs.URL, j.ID)
	var states []string
	for _, ev := range evs {
		states = append(states, ev.State+"/"+ev.Worker)
	}
	want := []string{"queued/", "running/a", "queued/", "running/b", "failed/"}
	if strings.Join(states, " ") != strings.Join(want, " ") {
		t.Fatalf("event states %v, want %v", states, want)
	}
	if rq := evs[2]; rq.Attempts != 1 || len(rq.Trail) != 1 || !strings.Contains(rq.Trail[0], "lease expired") {
		t.Errorf("re-queued event: attempts %d, trail %q; want attempt 1 and the failover", rq.Attempts, rq.Trail)
	}
}

// TestCancelRacingCheckpointsKeepsProgressOrder: client cancels of a job
// running on a fleet worker race the worker's checkpoint commits, and the
// job's event stream still carries progress in commit order, never going
// back a generation. Run it under -race with -count.
func TestCancelRacingCheckpointsKeepsProgressOrder(t *testing.T) {
	s, hs, _ := openCoordinator(t)
	req := smallSearch()
	j := submitJob(t, hs.URL, &req)
	c := claimAs(t, hs.URL, "w")
	fleet := s.Handler()

	const generations = 200
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		for g := 1; g <= generations; g++ {
			body := fmt.Sprintf(`{"id":%q,"token":%d,"updates":[{"progress":{"generation":%d}}]}`, j.ID, c.Lease.Token, g)
			rec := httptest.NewRecorder()
			fleet.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/checkpoint", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("checkpoint %d: status %d body %s", g, rec.Code, rec.Body)
				return
			}
		}
	}()
	var cancels sync.WaitGroup
	for range 2 {
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			for {
				select {
				case <-committed:
					return
				default:
				}
				if _, err := s.jobs.Cancel(j.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cancels.Wait()
	body := fmt.Sprintf(`{"id":%q,"token":%d,"state":"cancelled","error":%q}`, j.ID, c.Lease.Token, jobs.ErrCancelled.Error())
	if resp, rb := postJSON(t, hs.URL+"/v1/fleet/complete", json.RawMessage(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d body %s", resp.StatusCode, rb)
	}

	last := 0
	for i, ev := range readEventsWithin(t, hs.URL, j.ID) {
		g := generationOf(t, ev.Progress)
		if g < last {
			t.Fatalf("event %d carries generation %d after %d", i, g, last)
		}
		last = g
	}
	if last != generations {
		t.Errorf("stream ended at generation %d, want %d", last, generations)
	}
}
