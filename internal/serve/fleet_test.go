package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fleetClock is a manually advanced clock shared by every node in a test
// fleet, so lease expiry is driven by the test, not the wall.
type fleetClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFleetClock() *fleetClock {
	return &fleetClock{t: time.Date(2026, 8, 6, 10, 0, 0, 0, time.UTC)}
}

func (c *fleetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fleetClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newWorkerNode opens a serve.Server configured as a fleet worker of the
// given coordinator, with cadences shrunk for tests.
func newWorkerNode(t *testing.T, clk *fleetClock, coordinatorURL, node string) *Server {
	t.Helper()
	s, err := Open(Config{
		Clock:          clk.Now,
		JobWorkers:     1,
		Coordinator:    coordinatorURL,
		FleetNode:      node,
		FleetPoll:      2 * time.Millisecond,
		FleetHeartbeat: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func closeNode(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close node: %v", err)
	}
}

// readJobEvents replays a job's full SSE history from the given server and
// returns the decoded snapshots, ending at the first terminal event. The
// job must already be terminal.
func readJobEvents(t *testing.T, base, id string) []JobJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []JobJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobJSON
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		evs = append(evs, ev)
		if ev.State == "done" || ev.State == "failed" || ev.State == "cancelled" {
			return evs
		}
	}
	t.Fatalf("event stream ended without a terminal event (%d events)", len(evs))
	return nil
}

// progressSequence extracts the distinct progress payloads from an event
// history, in order. Re-publishes around claims and requeues repeat the
// latest progress, so consecutive duplicates collapse; what remains is the
// generation-by-generation trajectory of the search.
func progressSequence(evs []JobJSON) []string {
	var seq []string
	for _, ev := range evs {
		if len(ev.Progress) == 0 {
			continue
		}
		p := string(ev.Progress)
		if len(seq) == 0 || seq[len(seq)-1] != p {
			seq = append(seq, p)
		}
	}
	return seq
}

// TestFleetMigrationEquivalence is the PR's acceptance gate: a search job
// killed at every generation boundary — each time on a different worker
// process, with failover through lease expiry and the checkpoint handed to
// the next claimant — must produce a result (best, trace) and a progress
// trajectory byte-identical to an uninterrupted single-node run.
func TestFleetMigrationEquivalence(t *testing.T) {
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		// TileRounds sized so each generation outlasts a 5ms status poll:
		// with the batched/delta evaluator a 50-round generation completes
		// between polls and the boundary-kill choreography can never catch
		// the worker mid-run.
		Population: 8, Generations: 5, TileRounds: 1000, TopK: 2, Seed: 21,
	}

	// Control: the same job, uninterrupted, on a plain single node.
	_, ctlHS := newTestServer(t, Config{})
	cj := submitJob(t, ctlHS.URL, &req)
	want := waitJob(t, ctlHS.URL, cj.ID, func(j *JobJSON) bool { return j.State == "done" })
	wantSeq := progressSequence(readJobEvents(t, ctlHS.URL, cj.ID))
	if len(wantSeq) < req.Generations {
		t.Fatalf("control run published %d progress payloads; want >= %d", len(wantSeq), req.Generations)
	}

	// Fleet: a coordinator that never executes jobs itself, plus a
	// succession of worker processes that each get killed at the next
	// generation boundary.
	clk := newFleetClock()
	coord, err := Open(Config{
		Clock:      clk.Now,
		JobWorkers: -1, // coordinator-only: store and lease, never run
		LeaseTTL:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(t, coord)
	coordHS := httptest.NewServer(coord.Handler())
	defer coordHS.Close()

	j := submitJob(t, coordHS.URL, &req)
	terminal := func(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

	workers := 0
	spawn := func() *Server {
		workers++
		return newWorkerNode(t, clk, coordHS.URL, fmt.Sprintf("w%d", workers))
	}
	w := spawn()
	for boundary := 1; boundary < req.Generations; boundary++ {
		// Wait for the running worker to commit the checkpoint at this
		// generation boundary (it may already be past it).
		var prog SearchProgress
		last := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool {
			if terminal(j.State) {
				return true
			}
			if len(j.Progress) == 0 {
				return false
			}
			if err := json.Unmarshal(j.Progress, &prog); err != nil {
				t.Fatalf("bad progress: %v", err)
			}
			return prog.Generation >= boundary && j.HasCheckpoint
		})
		if terminal(last.State) {
			t.Fatalf("search finished (%s) before boundary %d; enlarge the request", last.State, boundary)
		}
		if last.Worker != fmt.Sprintf("w%d", workers) {
			t.Fatalf("job leased to %q at boundary %d; want w%d", last.Worker, boundary, workers)
		}

		// Crash the worker: no release, no complete — its lease just stops
		// being renewed. Failover must come from expiry + sweep.
		w.worker.Kill()
		closeNode(t, w)
		clk.Advance(2 * time.Minute)
		coord.SweepFleet()
		requeued := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return j.State == "queued" })
		if !requeued.HasCheckpoint {
			t.Fatal("failover dropped the checkpoint")
		}
		w = spawn()
	}
	got := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return terminal(j.State) })
	closeNode(t, w)

	if got.State != "done" {
		t.Fatalf("fleet job ended %s: %s", got.State, got.Error)
	}
	if got.Attempts != workers {
		t.Errorf("fleet job ran %d attempts across %d workers", got.Attempts, workers)
	}
	if fo := coord.coord.Stats().Failovers; fo != uint64(workers-1) {
		t.Errorf("coordinator counted %d failovers; want %d", fo, workers-1)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("migrated result differs from uninterrupted run:\nwant %s\ngot  %s", want.Result, got.Result)
	}
	gotSeq := progressSequence(readJobEvents(t, coordHS.URL, j.ID))
	if len(gotSeq) != len(wantSeq) {
		t.Fatalf("progress trajectory length %d vs control %d:\ngot  %v\nwant %v", len(gotSeq), len(wantSeq), gotSeq, wantSeq)
	}
	for i := range wantSeq {
		if gotSeq[i] != wantSeq[i] {
			t.Errorf("progress payload %d differs:\nwant %s\ngot  %s", i, wantSeq[i], gotSeq[i])
		}
	}
}

// TestFleetFailoverTwoWorkers runs a coordinator with two live worker
// nodes, kills whichever one holds the lease, and checks the survivor
// finishes the job from the checkpoint after the sweep fails it over.
func TestFleetFailoverTwoWorkers(t *testing.T) {
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 6, Generations: 8, TileRounds: 40, TopK: 2, Seed: 23,
	}
	clk := newFleetClock()
	coord, err := Open(Config{Clock: clk.Now, JobWorkers: -1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(t, coord)
	coordHS := httptest.NewServer(coord.Handler())
	defer coordHS.Close()

	w1 := newWorkerNode(t, clk, coordHS.URL, "w1")
	w2 := newWorkerNode(t, clk, coordHS.URL, "w2")

	j := submitJob(t, coordHS.URL, &req)
	running := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool {
		return j.State == "running" && j.HasCheckpoint && j.Worker != ""
	})
	owner, survivor := w1, w2
	if running.Worker == "w2" {
		owner, survivor = w2, w1
	}
	owner.worker.Kill()
	closeNode(t, owner)
	clk.Advance(2 * time.Minute)
	coord.SweepFleet()

	got := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" })
	if got.Attempts != 2 {
		t.Errorf("job ran %d attempts; want 2", got.Attempts)
	}

	// The coordinator's /metrics shows the failover and the fleet counters.
	resp, err := http.Get(coordHS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tileflow_fleet_failovers_total 1\n",
		"tileflow_fleet_claims_total 2\n",
		"tileflow_fleet_completes_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	// The survivor's /metrics carries its worker gauges.
	shs := httptest.NewServer(survivor.Handler())
	resp, err = http.Get(shs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	shs.Close()
	stext := string(body)
	node := fmt.Sprintf("node=%q", survivor.cfg.FleetNode)
	for _, want := range []string{
		"tileflow_fleet_worker_claims_total{" + node + "} 1",
		"tileflow_fleet_worker_leases{" + node + "} 0",
	} {
		if !strings.Contains(stext, want) {
			t.Errorf("survivor metrics missing %q", want)
		}
	}
	closeNode(t, survivor)
}

// TestFleetProtocolMounted checks every node answers the peer protocol on
// its main mux (and on the dedicated FleetHandler), so any node can be
// pointed at as a coordinator.
func TestFleetProtocolMounted(t *testing.T) {
	s, hs := newTestServer(t, Config{JobWorkers: -1})
	for _, h := range []string{hs.URL} {
		resp, err := http.Post(h+"/v1/fleet/claim", "application/json", strings.NewReader(`{"node":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("empty claim on %s: status %d, want 204", h, resp.StatusCode)
		}
	}
	fhs := httptest.NewServer(s.FleetHandler())
	defer fhs.Close()
	resp, err := http.Post(fhs.URL+"/v1/fleet/claim", "application/json", strings.NewReader(`{"node":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("empty claim on fleet listener: status %d, want 204", resp.StatusCode)
	}

	// Stale writes are coded on the wire for workers to distinguish from
	// transient faults.
	j, err := s.store.Create("search", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.ClaimID(j.ID, "a", 0); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":%q,"token":99,"state":"done"}`, j.ID)
	resp, err = http.Post(hs.URL+"/v1/fleet/complete", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusConflict || eb.Code != "stale_lease" {
		t.Errorf("stale complete: status %d code %q; want 409 stale_lease", resp.StatusCode, eb.Code)
	}
}

// TestFleetPeerRequestMix counts the peer requests reaching a coordinator
// while one search job runs on one worker. A worker's search memoizes
// against its own node's cache, so the only peer traffic is the lease
// protocol: claim polls, heartbeats, checkpoints and the completion. No
// fitness lookup or write crosses the wire, and the coordinator serves no
// memo endpoint at all.
func TestFleetPeerRequestMix(t *testing.T) {
	clk := newFleetClock()
	coord, err := Open(Config{Clock: clk.Now, JobWorkers: -1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(t, coord)
	var mu sync.Mutex
	seen := map[string]int{}
	coordHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/fleet/") {
			mu.Lock()
			seen[r.Method+" "+r.URL.Path]++
			mu.Unlock()
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	defer coordHS.Close()

	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 3, TileRounds: 10, TopK: 2, Seed: 29,
	}
	j := submitJob(t, coordHS.URL, &req)
	w := newWorkerNode(t, clk, coordHS.URL, "w1")
	got := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" || j.State == "failed" })
	closeNode(t, w)
	if got.State != "done" {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}

	mu.Lock()
	mix := maps.Clone(seen)
	mu.Unlock()
	allowed := map[string]bool{
		"POST /v1/fleet/claim":      true,
		"POST /v1/fleet/renew":      true,
		"POST /v1/fleet/checkpoint": true,
		"POST /v1/fleet/complete":   true,
	}
	for path, n := range mix {
		if !allowed[path] {
			t.Errorf("worker sent %d × %s; want only claim/renew/checkpoint/complete", n, path)
		}
	}
	for _, path := range []string{"POST /v1/fleet/claim", "POST /v1/fleet/checkpoint", "POST /v1/fleet/complete"} {
		if mix[path] == 0 {
			t.Errorf("no %s reached the coordinator (saw %v)", path, mix)
		}
	}

	resp, err := http.Post(coordHS.URL+"/v1/fleet/memo/get", "application/json", strings.NewReader(`{"key":"k"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/fleet/memo/get: status %d, want 404", resp.StatusCode)
	}
}

// TestJobEventsReplayAfterCompaction pins the SSE contract once a job's
// event history outgrows the in-memory window: a Last-Event-ID from before
// the window replays from the oldest retained event (ids still increasing),
// and one past the end of a finished job's log ends the stream immediately
// with nothing.
func TestJobEventsReplayAfterCompaction(t *testing.T) {
	const window = 512 // jobs.maxEventHistory
	s, hs := newTestServer(t, Config{JobWorkers: -1})
	j := submitJob(t, hs.URL, func() *SearchRequest { r := smallSearch(); r.Seed = 29; return &r }())

	// Publish far more snapshots than the window holds; no worker runs the
	// job, so the history is exactly what we publish (after the submit
	// event).
	stored, ok := s.store.Get(j.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	const extra = 140
	for i := 0; i < window+extra; i++ {
		snap := stored.Clone()
		snap.Progress = json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		s.jobs.Publish(snap)
	}

	// Replay from before the window: the stream starts at the oldest
	// retained event, not at 2, and delivers the full window.
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	total := 1 + window + extra // submit event + published snapshots
	oldest := total - window + 1
	firstID, n := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			var id int
			fmt.Sscanf(line, "id: %d", &id)
			if firstID == 0 {
				firstID = id
			}
			n++
			if id == total {
				break // caught up to everything published
			}
		}
	}
	cancel()
	if firstID != oldest {
		t.Errorf("replay started at id %d; want oldest retained %d", firstID, oldest)
	}
	if n != window {
		t.Errorf("replay delivered %d events; want the full window of %d", n, window)
	}

	// Finish the job, then ask for events past the end: immediate EOF, no
	// data.
	if _, err := s.jobs.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, hs.URL, j.ID, func(j *JobJSON) bool { return j.State == "cancelled" })
	req2, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", "999999")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(rest), "data: ") {
		t.Errorf("past-end replay produced events: %q", rest)
	}
}

// TestRetentionSweepServeLevel wires -job-retention through the server: a
// finished job older than the horizon disappears from the API after a
// sweep, newer ones stay.
func TestRetentionSweepServeLevel(t *testing.T) {
	clk := newFleetClock()
	s, err := Open(Config{Clock: clk.Now, JobRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(t, s)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	old := submitJob(t, hs.URL, func() *SearchRequest { r := smallSearch(); r.Seed = 31; return &r }())
	waitJob(t, hs.URL, old.ID, func(j *JobJSON) bool { return j.State == "done" })
	clk.Advance(2 * time.Hour)
	fresh := submitJob(t, hs.URL, func() *SearchRequest { r := smallSearch(); r.Seed = 37; return &r }())
	waitJob(t, hs.URL, fresh.ID, func(j *JobJSON) bool { return j.State == "done" })

	if n := s.SweepRetention(); n != 1 {
		t.Fatalf("retention sweep evicted %d jobs; want 1", n)
	}
	if resp := getJSON(t, hs.URL+"/v1/jobs/"+old.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job still answers: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, hs.URL+"/v1/jobs/"+fresh.ID, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("fresh job gone: status %d", resp.StatusCode)
	}
}
