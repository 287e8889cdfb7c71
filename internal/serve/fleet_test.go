package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
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

// peerGate wraps a coordinator's handler for the tests that kill a worker
// mid-job. It lets updates through up to the search generation in limit
// and no further: a checkpoint or complete request carrying a later update
// has the updates before it committed, as one checkpoint request, and is
// then held unanswered until its sender hangs up (Kill cancels a worker's
// in-flight requests). A worker the test is about to kill has therefore
// committed exactly through limit, with a checkpoint the next claimant
// resumes from, and cannot finish the job first; the updates past limit
// are lost with the worker, as in a crash. Every request the gate answered
// or held ticks changed.
type peerGate struct {
	next    http.Handler
	limit   atomic.Int64
	changed chan struct{}
	// stop ends every hold; close it before the test server closes.
	stop chan struct{}
}

func newPeerGate(next http.Handler, limit int) *peerGate {
	g := &peerGate{next: next, changed: make(chan struct{}, 1), stop: make(chan struct{})}
	g.limit.Store(int64(limit))
	return g
}

// open lets every update through.
func (g *peerGate) open() { g.limit.Store(math.MaxInt64) }

func (g *peerGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer g.tick()
	if r.URL.Path != "/v1/fleet/checkpoint" && r.URL.Path != "/v1/fleet/complete" {
		g.next.ServeHTTP(w, r)
		return
	}
	// Reading the body to EOF also lets the server notice a hang-up.
	body, _ := io.ReadAll(r.Body)
	var req struct {
		ID      string            `json:"id"`
		Token   uint64            `json:"token"`
		Updates []json.RawMessage `json:"updates"`
	}
	json.Unmarshal(body, &req)
	pass := len(req.Updates)
	for i, u := range req.Updates {
		var up struct {
			Progress SearchProgress `json:"progress"`
		}
		json.Unmarshal(u, &up)
		if int64(up.Progress.Generation) > g.limit.Load() {
			pass = i
			break
		}
	}
	if pass == len(req.Updates) {
		r.Body = io.NopCloser(bytes.NewReader(body))
		g.next.ServeHTTP(w, r)
		return
	}
	if pass > 0 {
		prefix, _ := json.Marshal(map[string]any{"id": req.ID, "token": req.Token, "updates": req.Updates[:pass]})
		g.next.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/fleet/checkpoint", bytes.NewReader(prefix)))
	}
	g.tick()
	select {
	case <-r.Context().Done():
	case <-g.stop:
	}
}

func (g *peerGate) tick() {
	select {
	case g.changed <- struct{}{}:
	default: // a tick is already pending
	}
}

// waitCommitted waits until the coordinator's store holds a snapshot of
// the job satisfying pred, re-reading it at each gate tick.
func waitCommitted(t *testing.T, coord *Server, g *peerGate, id string, pred func(*jobs.Job) bool) *jobs.Job {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		j, _ := coord.store.Get(id)
		if j != nil && pred(j) {
			return j
		}
		select {
		case <-g.changed:
		case <-deadline:
			t.Fatalf("job %s never satisfied the predicate; last %+v", id, j)
		}
	}
}

// generationOf decodes the search generation of a job's progress, 0 if it
// has none.
func generationOf(t *testing.T, progress json.RawMessage) int {
	t.Helper()
	if len(progress) == 0 {
		return 0
	}
	var prog SearchProgress
	if err := json.Unmarshal(progress, &prog); err != nil {
		t.Fatalf("bad progress %s: %v", progress, err)
	}
	return prog.Generation
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
	// The first worker may commit no further than generation 1.
	gate := newPeerGate(coord.Handler(), 1)
	coordHS := httptest.NewServer(gate)
	defer coordHS.Close()
	defer close(gate.stop)

	j := submitJob(t, coordHS.URL, &req)
	terminal := func(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

	workers := 0
	spawn := func() *Server {
		workers++
		return newWorkerNode(t, clk, coordHS.URL, fmt.Sprintf("w%d", workers))
	}
	w := spawn()
	for boundary := 1; boundary < req.Generations; boundary++ {
		// Wait until the newest worker has committed the checkpoint at
		// this generation boundary. The gate holds whatever it sends past
		// it, so the worker can neither commit further nor finish the job.
		owner := fmt.Sprintf("w%d", workers)
		last := waitCommitted(t, coord, gate, j.ID, func(j *jobs.Job) bool {
			return j.State.Terminal() || j.Lease != nil && j.Lease.Owner == owner &&
				j.Checkpoint != nil && generationOf(t, j.Progress) >= boundary
		})
		if last.State.Terminal() {
			t.Fatalf("search finished (%s) before boundary %d", last.State, boundary)
		}
		if g := generationOf(t, last.Progress); g != boundary {
			t.Fatalf("%s committed generation %d at boundary %d", owner, g, boundary)
		}

		// Crash the worker: no release, no complete — its lease just stops
		// being renewed. Failover must come from expiry + sweep.
		w.worker.Kill()
		closeNode(t, w)
		clk.Advance(2 * time.Minute)
		coord.SweepFleet()
		requeued := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return j.State == "queued" })
		if !requeued.HasCheckpoint || generationOf(t, requeued.Progress) != boundary {
			t.Fatalf("failover re-queued progress %s (checkpoint %v); want generation %d's", requeued.Progress, requeued.HasCheckpoint, boundary)
		}
		gate.limit.Store(int64(boundary + 1))
		w = spawn()
	}
	gate.open() // the last worker finishes the job
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
	// Each worker resumed where the last one stopped: every generation
	// was committed exactly once.
	if n := coord.coord.Stats().Checkpoints; n != uint64(req.Generations) {
		t.Errorf("coordinator committed %d updates over %d generations", n, req.Generations)
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
	// The lease holder may commit no further than generation 1.
	gate := newPeerGate(coord.Handler(), 1)
	coordHS := httptest.NewServer(gate)
	defer coordHS.Close()
	defer close(gate.stop)

	w1 := newWorkerNode(t, clk, coordHS.URL, "w1")
	w2 := newWorkerNode(t, clk, coordHS.URL, "w2")

	// Kill the lease holder once the coordinator has committed its
	// generation-1 checkpoint.
	j := submitJob(t, coordHS.URL, &req)
	running := waitCommitted(t, coord, gate, j.ID, func(j *jobs.Job) bool {
		return j.State == jobs.Running && j.Checkpoint != nil
	})
	if g := generationOf(t, running.Progress); running.Lease == nil || g != 1 {
		t.Fatalf("job under lease %+v committed generation %d; want 1", running.Lease, g)
	}
	owner, survivor := w1, w2
	if running.Lease.Owner == "w2" {
		owner, survivor = w2, w1
	}
	owner.worker.Kill()
	closeNode(t, owner)
	gate.open()
	clk.Advance(2 * time.Minute)
	coord.SweepFleet()
	if after, _ := coord.store.Get(j.ID); after.Checkpoint == nil {
		t.Fatalf("failover lost the checkpoint: job %s under lease %+v", after.State, after.Lease)
	}

	got := waitJob(t, coordHS.URL, j.ID, func(j *JobJSON) bool { return j.State == "done" })
	if got.Attempts != 2 {
		t.Errorf("job ran %d attempts; want 2", got.Attempts)
	}
	// The survivor resumed after generation 1 instead of starting over:
	// every generation was committed exactly once.
	if n := coord.coord.Stats().Checkpoints; n != uint64(req.Generations) {
		t.Errorf("coordinator committed %d updates over %d generations", n, req.Generations)
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
	if _, err := s.store.ClaimNext("a", 0); err != nil {
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
// in its own private cache, so the only peer traffic is the lease
// protocol: claim polls, heartbeats, checkpoints and the completion. No
// fitness lookup or write crosses the wire, and the coordinator serves no
// memo endpoint at all. However the worker batches its updates, every
// generation's progress reaches the coordinator's event log, and the
// stored checkpoint is the last one the runner reported.
func TestFleetPeerRequestMix(t *testing.T) {
	clk := newFleetClock()
	coord, err := Open(Config{Clock: clk.Now, JobWorkers: -1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNode(t, coord)
	var mu sync.Mutex
	seen := map[string]int{}
	// lastCP is the newest checkpoint the worker sent, read off the wire:
	// updates travel in the order the runner reported them.
	var lastCP json.RawMessage
	coordHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/fleet/") {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var sent struct {
				Updates []struct {
					Checkpoint json.RawMessage `json:"checkpoint"`
				} `json:"updates"`
			}
			json.Unmarshal(body, &sent)
			mu.Lock()
			seen[r.Method+" "+r.URL.Path]++
			for _, u := range sent.Updates {
				if u.Checkpoint != nil {
					lastCP = u.Checkpoint
				}
			}
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
	for _, path := range []string{"POST /v1/fleet/claim", "POST /v1/fleet/complete"} {
		if mix[path] == 0 {
			t.Errorf("no %s reached the coordinator (saw %v)", path, mix)
		}
	}
	var gens []int
	for _, p := range progressSequence(readJobEvents(t, coordHS.URL, j.ID)) {
		var prog SearchProgress
		if err := json.Unmarshal([]byte(p), &prog); err != nil {
			t.Fatalf("bad progress %s: %v", p, err)
		}
		gens = append(gens, prog.Generation)
	}
	want := make([]int, req.Generations)
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(gens, want) {
		t.Errorf("progress reached the coordinator for generations %v; want 1..%d", gens, req.Generations)
	}
	stored, _ := coord.store.Get(j.ID)
	mu.Lock()
	sentCP := lastCP
	mu.Unlock()
	if sentCP == nil || !bytes.Equal(sentCP, stored.Checkpoint) {
		t.Errorf("stored checkpoint (%d bytes) is not the runner's last (%d bytes)", len(stored.Checkpoint), len(sentCP))
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

	// Claim the job and commit far more updates than the window holds; no
	// worker runs the job, so the history is exactly the submit, the claim
	// and these commits.
	c, err := s.store.ClaimNext("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 140
	for i := 0; i < window+extra; i++ {
		if _, err := s.store.CommitUpdate(j.ID, c.Lease.Token, payload(t, fmt.Sprintf(`{"i":%d}`, i)), jobs.Payload{}); err != nil {
			t.Fatal(err)
		}
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

	total := 2 + window + extra // submit and claim events + committed updates
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
	if _, err := s.store.Complete(j.ID, c.Lease.Token, jobs.Cancelled, jobs.Payload{}, jobs.ErrCancelled.Error()); err != nil {
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

// TestServerCloseTwice: Close is idempotent, so a shutdown path may close
// a node that something else closes again (newTestServer's cleanup closes
// this one a third time).
func TestServerCloseTwice(t *testing.T) {
	s, _ := newTestServer(t, Config{JobWorkers: -1})
	closeNode(t, s)
	closeNode(t, s)
}

// TestShutdownEndsParkedClaim: a claim parked on a coordinator node for an
// hour is answered empty as soon as the node's HTTP server shuts down
// (StopParking registered with RegisterOnShutdown) or the node closes, so
// neither waits out the park.
func TestShutdownEndsParkedClaim(t *testing.T) {
	for _, how := range []string{"http-shutdown", "server-close"} {
		t.Run(how, func(t *testing.T) {
			s, err := Open(Config{JobWorkers: -1, LeaseTTL: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			arrived := make(chan struct{}, 1)
			hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/fleet/claim" {
					arrived <- struct{}{}
				}
				s.Handler().ServeHTTP(w, r)
			}))
			hs.Config.RegisterOnShutdown(s.StopParking)
			hs.Start()
			defer hs.Close()
			// Runs first, so a failing case does not leave hs.Close waiting
			// on the park.
			defer closeNode(t, s)

			status := make(chan int, 1)
			go func() {
				resp, err := http.Post(hs.URL+"/v1/fleet/claim", "application/json",
					strings.NewReader(`{"node":"w1","wait_ms":3600000}`))
				if err != nil {
					status <- 0
					return
				}
				resp.Body.Close()
				status <- resp.StatusCode
			}()
			deadline := time.After(10 * time.Second)
			select {
			case <-arrived:
			case <-deadline:
				t.Fatal("the claim never reached the coordinator")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if how == "http-shutdown" {
				if err := hs.Config.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown waited on the parked claim: %v", err)
				}
			} else if err := s.Close(ctx); err != nil {
				t.Fatal(err)
			}
			select {
			case code := <-status:
				if code != http.StatusNoContent {
					t.Errorf("parked claim answered %d, want 204", code)
				}
			case <-deadline:
				t.Fatal("the parked claim outlived the shutdown")
			}
		})
	}
}
