package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// testClock is a manually advanced clock shared by the store and workers.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 6, 9, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// harness bundles a store, a coordinator, and its HTTP server.
type harness struct {
	clk   *testClock
	store *jobs.Store
	// jobs is a manager that runs nothing itself (Workers: -1); the tests
	// read each job's events from it, as the coordinator's SSE clients do.
	jobs  *jobs.Manager
	coord *Coordinator
	srv   *httptest.Server
	// claimed receives the node name of each claim as it reaches the
	// coordinator, before the coordinator handles it; sends that find the
	// buffer full are dropped.
	claimed chan string

	mu sync.Mutex
	// requests is every peer request that reached the coordinator, in
	// arrival order.
	requests []peerRequest
}

// peerRequest is the part of a peer request body the tests inspect.
type peerRequest struct {
	Path    string            `json:"-"`
	Node    string            `json:"node"`
	ID      string            `json:"id"`
	Token   uint64            `json:"token"`
	Updates []json.RawMessage `json:"updates"`
}

// hold stops every request to one peer endpoint at the coordinator's door:
// each is announced on arrived, then forwarded once the test closes
// release, or dropped unanswered if its sender hangs up first (Kill
// cancels a worker's in-flight requests). The harness releases it at
// cleanup.
type hold struct {
	path    string
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func newHold(path string) *hold {
	return &hold{path: path, arrived: make(chan struct{}, 64), release: make(chan struct{})}
}

func (hd *hold) open() { hd.once.Do(func() { close(hd.release) }) }

func newHarness(t *testing.T, ttl time.Duration, holds ...*hold) *harness {
	t.Helper()
	clk := newTestClock()
	store, err := jobs.Open("", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(store, jobs.Config{Workers: -1, Runner: func(context.Context, *jobs.Job, func(p, c jobs.Payload)) (jobs.Payload, error) {
		return jobs.Payload{}, fmt.Errorf("the coordinator runs no job itself")
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{clk: clk, store: store, jobs: m, claimed: make(chan string, 64)}
	h.coord = &Coordinator{Store: store, TTL: ttl}
	handler := h.coord.Handler()
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF also lets the server notice a sender
		// that hangs up while its request is held.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		req := peerRequest{Path: r.URL.Path}
		json.Unmarshal(body, &req)
		h.mu.Lock()
		h.requests = append(h.requests, req)
		h.mu.Unlock()
		if r.URL.Path == "/v1/fleet/claim" {
			select {
			case h.claimed <- req.Node:
			default:
			}
		}
		for _, hd := range holds {
			if r.URL.Path != hd.path {
				continue
			}
			hd.arrived <- struct{}{}
			select {
			case <-hd.release:
			case <-r.Context().Done():
				return
			}
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		for _, hd := range holds {
			hd.open()
		}
		h.srv.Close()
		m.Drain(context.Background())
		store.Close()
	})
	return h
}

// history returns the job's events so far, in commit order.
func (h *harness) history(id string) []*jobs.Job {
	ch, stop := h.jobs.Subscribe(id, 0)
	defer stop()
	var out []*jobs.Job
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return out
			}
			out = append(out, ev.Job)
		default: // the replay is buffered; what is left is live
			return out
		}
	}
}

// progressOf lists the progress payloads committed for a running job, in
// commit order.
func (h *harness) progressOf(id string) []string {
	var seq []string
	for _, j := range h.history(id) {
		if j.State == jobs.Running && j.Progress != nil {
			seq = append(seq, string(j.Progress))
		}
	}
	return seq
}

// requestsFor lists the peer requests that quoted a job's lease token.
func (h *harness) requestsFor(id string, token uint64) []peerRequest {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []peerRequest
	for _, r := range h.requests {
		if r.ID == id && r.Token == token {
			out = append(out, r)
		}
	}
	return out
}

func (h *harness) newWorker(t *testing.T, node string, runner jobs.Runner) *Worker {
	t.Helper()
	return h.newWorkerPoll(t, node, 5*time.Millisecond, runner)
}

func (h *harness) newWorkerPoll(t *testing.T, node string, poll time.Duration, runner jobs.Runner) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: h.srv.URL,
		Node:        node,
		Poll:        poll,
		Heartbeat:   10 * time.Millisecond,
		Clock:       h.clk.Now,
		Runner:      runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// eventDeadline bounds each event wait in the fleet tests; none of them
// sleeps.
const eventDeadline = 10 * time.Second

// waitJob returns the first event of the job, in commit order, whose
// snapshot satisfies pred, waiting for it until the deadline passes. The
// store publishes each event as it commits the change, before the
// coordinator's handler counts it or answers the worker.
func waitJob(t *testing.T, h *harness, id, what string, pred func(*jobs.Job) bool) *jobs.Job {
	t.Helper()
	deadline := time.After(eventDeadline)
	after := 0
	for final := false; ; {
		ch, stop := h.jobs.Subscribe(id, after)
		for open := true; open; {
			var ev jobs.Event
			select {
			case ev, open = <-ch:
			case <-deadline:
				stop()
				j, _ := h.store.Get(id)
				t.Fatalf("job %s never %s (now %+v)", id, what, j)
			}
			if open {
				after = ev.Seq
				if pred(ev.Job) {
					stop()
					return ev.Job
				}
			}
		}
		stop()
		if final {
			j, _ := h.store.Get(id)
			t.Fatalf("job %s never %s (ended %+v)", id, what, j)
		}
		// The stream ended: the job is terminal, or this wait fell behind
		// and was dropped. One more subscription after a terminal read
		// replays the rest.
		j, ok := h.store.Get(id)
		final = !ok || j.State.Terminal()
	}
}

// waitState waits until the job reaches want.
func waitState(t *testing.T, h *harness, id string, want jobs.State) *jobs.Job {
	t.Helper()
	return waitJob(t, h, id, "reached "+string(want), func(j *jobs.Job) bool { return j.State == want })
}

// waitFor waits for a signal from a runner or a hold.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(eventDeadline):
		t.Fatalf("timed out waiting: %s", what)
	}
}

func TestWorkerClaimsRunsCompletes(t *testing.T) {
	h := newHarness(t, time.Hour)
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(payload(`{"generation":1}`), payload(`{"cp":1}`))
		return payload(`{"echo":` + string(j.Request) + `}`), nil
	})
	w.Start()
	defer w.Kill()

	j, err := h.store.Create("search", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, h, j.ID, jobs.Done)
	if string(got.Result) != `{"echo":{"x":1}}` {
		t.Errorf("result %s", got.Result)
	}
	if got.Attempts != 1 || string(got.Progress) != `{"generation":1}` || string(got.Checkpoint) != `{"cp":1}` {
		t.Errorf("bookkeeping: %+v", got)
	}
	// The store publishes Done as it commits it, a beat before the
	// complete handler and then the worker bump their counters: drain the
	// worker, which returns once its slot loop has exited.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if cs := h.coord.Stats(); cs.Claims != 1 || cs.Checkpoints != 1 || cs.Completes != 1 {
		t.Errorf("coordinator stats %+v", cs)
	}
	if ws := w.Stats(); ws.Claims != 1 || ws.CheckpointsShipped != 1 || ws.Completes != 1 || ws.LeasesHeld != 0 {
		t.Fatalf("worker stats %+v", ws)
	}
}

// TestFailoverHandsCheckpointToNextWorker kills a worker mid-job and
// checks the sweep re-queues the job with the dead worker's checkpoint,
// and that the next claimant picks it up with the attempt counted.
func TestFailoverHandsCheckpointToNextWorker(t *testing.T) {
	h := newHarness(t, time.Minute)
	checkpointed := make(chan struct{})
	var once sync.Once
	blockingRunner := func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(payload(`{"generation":2}`), payload(`{"next_gen":2}`))
		once.Do(func() { close(checkpointed) })
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	}
	a := h.newWorker(t, "a", blockingRunner)
	a.Start()

	j, _ := h.store.Create("search", nil)
	<-checkpointed
	// The runner's update only queued the checkpoint: wait until the
	// coordinator has committed it, which is when it survives a crash.
	waitJob(t, h, j.ID, "committed the checkpoint", func(j *jobs.Job) bool { return j.Checkpoint != nil })
	a.Kill() // crash: nothing reported, lease left dangling
	if st := a.Stats(); st.StaleLosses != 1 {
		t.Errorf("killed worker stale losses %d, want 1", st.StaleLosses)
	}

	running, _ := h.store.Get(j.ID)
	if running.State != jobs.Running || running.Lease.Owner != "a" {
		t.Fatalf("job after kill: %+v", running)
	}

	// Nothing to sweep until the TTL passes.
	if rq, cc, _ := h.coord.Sweep(); rq != 0 || cc != 0 {
		t.Fatalf("premature sweep: %d %d", rq, cc)
	}
	h.clk.Advance(2 * time.Minute)
	if rq, cc, _ := h.coord.Sweep(); rq != 1 || cc != 0 {
		t.Fatalf("sweep after expiry: %d %d", rq, cc)
	}
	if h.coord.Stats().Failovers != 1 {
		t.Errorf("failovers %d, want 1", h.coord.Stats().Failovers)
	}

	got := make(chan *jobs.Job, 1)
	b := h.newWorker(t, "b", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		got <- j
		return payload(`{"done":true}`), nil
	})
	b.Start()
	defer b.Kill()

	claimed := <-got
	if string(claimed.Checkpoint) != `{"next_gen":2}` {
		t.Errorf("failover lost the checkpoint: %q", claimed.Checkpoint)
	}
	if claimed.Attempts != 2 {
		t.Errorf("attempts %d, want 2", claimed.Attempts)
	}
	waitState(t, h, j.ID, jobs.Done)
}

// TestClaimSweepCountsFailovers: the lease sweep a claim runs before it
// grants a lease counts its re-queues and quarantines exactly as a
// periodic Sweep would.
func TestClaimSweepCountsFailovers(t *testing.T) {
	h := newHarness(t, time.Minute)
	retry, _ := h.store.Create("search", nil)
	if _, err := h.store.CreateWith(jobs.CreateSpec{Kind: "search", MaxAttempts: 1}, nil); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := h.store.ClaimNext("a", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	h.clk.Advance(2 * time.Minute)
	// b's claim sweeps both of a's expired leases: it re-queues retry,
	// which it then claims, and quarantines the job allowed one attempt.
	resp, err := http.Post(h.srv.URL+"/v1/fleet/claim", "application/json", strings.NewReader(`{"node":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	var cr claimResponse
	json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if cr.Job == nil || cr.Job.ID != retry.ID {
		t.Fatalf("b claimed %+v, want %s", cr.Job, retry.ID)
	}
	if cs := h.coord.Stats(); cs.Failovers != 1 || cs.SweepPoisons != 1 {
		t.Errorf("failovers %d, sweep poisons %d; want 1, 1", cs.Failovers, cs.SweepPoisons)
	}
}

// TestStaleCompleteRejectedOnWire exercises lease safety over HTTP: a
// worker that lost its lease gets 409 {code: "stale_lease"} when it tries
// to commit, and the job's true result is untouched.
func TestStaleCompleteRejectedOnWire(t *testing.T) {
	h := newHarness(t, time.Minute)
	post := func(path string, body any) (int, errorBody) {
		b, _ := json.Marshal(body)
		resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	j, _ := h.store.Create("search", nil)
	first, err := h.store.ClaimNext("a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(2 * time.Minute)
	h.coord.Sweep()
	second, err := h.store.ClaimNext("b", time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	status, eb := post("/v1/fleet/complete", &completeRequest{
		ID: j.ID, Token: first.Lease.Token, State: jobs.Done,
		Result: json.RawMessage(`{"cycles":666}`),
	})
	if status != http.StatusConflict || eb.Code != CodeStaleLease {
		t.Fatalf("stale complete: status %d code %q", status, eb.Code)
	}
	if h.coord.Stats().StaleRejections != 1 {
		t.Errorf("stale rejections %d, want 1", h.coord.Stats().StaleRejections)
	}
	got, _ := h.store.Get(j.ID)
	if got.State != jobs.Running || got.Result != nil {
		t.Errorf("stale write landed: %+v", got)
	}

	status, eb = post("/v1/fleet/renew", &renewRequest{ID: "j99999999", Token: 1})
	if status != http.StatusNotFound || eb.Code != CodeUnknownJob {
		t.Errorf("unknown job: status %d code %q", status, eb.Code)
	}

	// The rightful owner still commits fine.
	status, _ = post("/v1/fleet/complete", &completeRequest{
		ID: j.ID, Token: second.Lease.Token, State: jobs.Done,
		Result: json.RawMessage(`{"cycles":7}`),
	})
	if status != http.StatusOK {
		t.Fatalf("owner complete: status %d", status)
	}
}

// TestCancelRidesHeartbeat flags a running remote job for cancellation and
// checks the worker learns of it on renew and finalizes as Cancelled.
func TestCancelRidesHeartbeat(t *testing.T) {
	h := newHarness(t, time.Hour)
	started := make(chan struct{})
	var once sync.Once
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	})
	w.Start()
	defer w.Kill()

	j, _ := h.store.Create("search", nil)
	<-started
	if _, err := h.store.RequestCancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, h, j.ID, jobs.Cancelled)
	if got.Error != jobs.ErrCancelled.Error() {
		t.Errorf("cancelled job error %q", got.Error)
	}
}

// TestWorkerCloseReleasesJobs drains a worker and checks its job goes back
// to the queue with the latest checkpoint instead of finishing.
func TestWorkerCloseReleasesJobs(t *testing.T) {
	h := newHarness(t, time.Hour)
	started := make(chan struct{})
	var once sync.Once
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(jobs.Payload{}, payload(`{"next_gen":5}`))
		once.Do(func() { close(started) })
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	})
	w.Start()

	j, _ := h.store.Create("search", nil)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got, _ := h.store.Get(j.ID)
	if got.State != jobs.Queued || got.Lease != nil {
		t.Fatalf("drained job %+v", got)
	}
	if string(got.Checkpoint) != `{"next_gen":5}` {
		t.Errorf("drain lost checkpoint: %q", got.Checkpoint)
	}
	if h.coord.Stats().Releases != 1 {
		t.Errorf("releases %d, want 1", h.coord.Stats().Releases)
	}
}

// TestNoDoubleExecution pins the no-two-nodes-run-one-job invariant under
// concurrency: many workers, many jobs, every job runs its attempts under
// distinct fencing tokens and completes exactly once.
func TestNoDoubleExecution(t *testing.T) {
	h := newHarness(t, time.Hour)
	var mu sync.Mutex
	runs := map[string]int{}
	runner := func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		mu.Lock()
		runs[j.ID]++
		mu.Unlock()
		return payload(`{}`), nil
	}
	for i := 0; i < 3; i++ {
		w := h.newWorker(t, fmt.Sprintf("w%d", i), runner)
		w.Start()
		defer w.Kill()
	}
	const n = 12
	ids := make([]string, n)
	for i := range ids {
		j, _ := h.store.Create("search", nil)
		ids[i] = j.ID
	}
	for _, id := range ids {
		waitState(t, h, id, jobs.Done)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if runs[id] != 1 {
			t.Errorf("job %s ran %d times", id, runs[id])
		}
	}
}

// TestFleetLeasesConcurrently: three single-slot workers hold three leases
// at once, one each. Every runner reports its arrival and then holds its
// job until the test releases them all, so a coordinator that leases one
// job at a time never delivers the third arrival and the test fails at its
// deadline instead of hanging. perfbench's explore-fleet workload measures
// what the fleet buys (ops_per_s, fleet.claim_wait_p50_ms).
func TestFleetLeasesConcurrently(t *testing.T) {
	const nodes = 3
	h := newHarness(t, time.Hour)
	arrived := make(chan struct{}, nodes)
	release := make(chan struct{})
	runner := func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		arrived <- struct{}{}
		select {
		case <-release:
			return payload(`{}`), nil
		case <-ctx.Done():
			return jobs.Payload{}, context.Cause(ctx)
		}
	}
	for i := 0; i < nodes; i++ {
		w := h.newWorker(t, fmt.Sprintf("w%d", i), runner)
		w.Start()
		defer w.Kill()
	}
	for i := 0; i < nodes; i++ {
		if _, err := h.store.Create("search", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for n := 0; n < nodes; n++ {
		select {
		case <-arrived:
		case <-deadline:
			t.Fatalf("only %d of %d jobs ran at once", n, nodes)
		}
	}
	held := h.store.LeasesHeld()
	if len(held) != nodes || held["w0"] != 1 || held["w1"] != 1 || held["w2"] != 1 {
		t.Errorf("leases held %v, want one on each of w0, w1, w2", held)
	}
	close(release)
}

// TestNodesAllocsIndependentOfHistory: the fleet inventory counts leases
// over the store's active jobs, so a /v1/fleet/nodes call or a metrics
// scrape costs the same whether the store holds no finished jobs or
// thousands.
func TestNodesAllocsIndependentOfHistory(t *testing.T) {
	var allocs [2]float64
	for i, finished := range []int{0, 5000} {
		h := newHarness(t, time.Minute)
		for k := 0; k < finished; k++ {
			j, err := h.store.Create("search", json.RawMessage(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			c, err := h.store.ClaimNext("w0", 0)
			if err != nil || c.ID != j.ID {
				t.Fatalf("claim got %v (%v), want %s", c, err, j.ID)
			}
			if _, err := h.store.Complete(c.ID, c.Lease.Token, jobs.Done, payload(`{}`), ""); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 2; k++ {
			if _, err := h.store.Create("search", json.RawMessage(`{}`)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.store.ClaimNext("w1", time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		h.coord.touchNode("w1", true)
		h.coord.touchNode("w2", false)
		nodes := h.coord.Nodes()
		if len(nodes) != 2 || nodes[0].LeasesHeld != 2 || nodes[0].State != "busy" || nodes[1].State != "idle" {
			t.Fatalf("inventory %+v, want w1 busy with 2 leases and w2 idle", nodes)
		}
		allocs[i] = testing.AllocsPerRun(50, func() { h.coord.Nodes() })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Nodes: %v allocs with no history, %v with 5000 finished jobs", allocs[0], allocs[1])
	}
}

// TestWirePayloadsStoredCanonical: a checkpoint, progress report and
// result a peer sends with whitespace and HTML-special characters are
// stored in json.Marshal's canonical form (compact, <>& escaped), the
// form the store's writer splices verbatim.
func TestWirePayloadsStoredCanonical(t *testing.T) {
	h := newHarness(t, time.Minute)
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	j, _ := h.store.Create("search", nil)
	claimed, err := h.store.ClaimNext("w1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/fleet/checkpoint", fmt.Sprintf(`{"id":%q,"token":%d, "updates": [ {
		"progress": { "generation" : 2 },
		"checkpoint": { "next_gen" : 2,
			"pop" : [ [1, 2], [3] ], "s" : "<a & b>" } } ] }`, j.ID, claimed.Lease.Token))
	got, _ := h.store.Get(j.ID)
	if want := `{"next_gen":2,"pop":[[1,2],[3]],"s":"\u003ca \u0026 b\u003e"}`; string(got.Checkpoint) != want {
		t.Errorf("stored checkpoint %s, want %s", got.Checkpoint, want)
	}
	if want := `{"generation":2}`; string(got.Progress) != want {
		t.Errorf("stored progress %s, want %s", got.Progress, want)
	}
	post("/v1/fleet/complete", fmt.Sprintf(`{"id":%q,"token":%d,"state":"done","result": {"notation" : "a>b"}}`, j.ID, claimed.Lease.Token))
	got, _ = h.store.Get(j.ID)
	if want := `{"notation":"a\u003eb"}`; got.State != jobs.Done || string(got.Result) != want {
		t.Errorf("stored %s result %s, want done %s", got.State, got.Result, want)
	}
}

// waitClaimFrom waits until a claim from node reaches the coordinator.
func waitClaimFrom(t *testing.T, h *harness, node string) {
	t.Helper()
	deadline := time.After(eventDeadline)
	for {
		select {
		case n := <-h.claimed:
			if n == node {
				return
			}
		case <-deadline:
			t.Fatalf("no claim from %s reached the coordinator", node)
		}
	}
}

// TestParkedClaimTakesLaterSubmit: a worker whose claim found the queue
// empty is parked on the coordinator, not sleeping out its hour-long
// Poll, so a job submitted after the claim arrived runs at once.
func TestParkedClaimTakesLaterSubmit(t *testing.T) {
	h := newHarness(t, time.Hour)
	w := h.newWorkerPoll(t, "w1", time.Hour, func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		return payload(`{"ok":true}`), nil
	})
	w.Start()
	defer w.Kill()

	waitClaimFrom(t, h, "w1")
	j, err := h.store.Create("search", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, h, j.ID, jobs.Done)
	if got.Lease != nil || got.Attempts != 1 {
		t.Errorf("done job %+v, want one attempt and no lease", got)
	}
}

// TestSweepRequeueWakesParkedClaim: a lease sweep that re-queues a dead
// worker's job wakes another worker's parked claim, which takes the job
// under the next fencing token.
func TestSweepRequeueWakesParkedClaim(t *testing.T) {
	h := newHarness(t, time.Minute)
	started := make(chan struct{})
	var once sync.Once
	a := h.newWorker(t, "a", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	})
	a.Start()
	j, err := h.store.Create("search", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(eventDeadline):
		t.Fatal("worker a never started the job")
	}
	a.Kill()
	first, _ := h.store.Get(j.ID)
	if first.State != jobs.Running || first.Lease.Owner != "a" {
		t.Fatalf("job after kill: %+v", first)
	}

	got := make(chan *jobs.Job, 1)
	b := h.newWorkerPoll(t, "b", time.Hour, func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		got <- j
		return payload(`{}`), nil
	})
	b.Start()
	defer b.Kill()
	waitClaimFrom(t, h, "b")

	h.clk.Advance(2 * time.Minute)
	h.coord.Sweep()
	select {
	case claimed := <-got:
		if claimed.ID != j.ID || claimed.Lease.Owner != "b" || claimed.Lease.Token != first.Lease.Token+1 {
			t.Fatalf("b claimed %s under %+v; want %s under token %d", claimed.ID, claimed.Lease, j.ID, first.Lease.Token+1)
		}
	case <-time.After(eventDeadline):
		t.Fatal("the re-queued job never reached parked worker b")
	}
	waitState(t, h, j.ID, jobs.Done)
}

// TestClaimNoFasterThanPoll: against a coordinator that answers every
// claim empty at once (one that does not park), each slot sleeps out the
// rest of its Poll, so two slots with an hour-long Poll send exactly two
// claims, and Close still returns at once.
func TestClaimNoFasterThanPoll(t *testing.T) {
	var claims atomic.Int64
	arrived := make(chan struct{}, 16)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/claim" {
			claims.Add(1)
			arrived <- struct{}{}
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer stub.Close()
	w, err := NewWorker(WorkerConfig{
		Coordinator: stub.URL,
		Node:        "w1",
		Slots:       2,
		Poll:        time.Hour,
		Runner: func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
			return jobs.Payload{}, fmt.Errorf("no job should run")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	deadline := time.After(eventDeadline)
	for n := 0; n < 2; n++ {
		select {
		case <-arrived:
		case <-deadline:
			t.Fatalf("only %d of 2 claims arrived", n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), eventDeadline)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := claims.Load(); n != 2 {
		t.Errorf("stub saw %d claims, want 2 (one per slot per Poll)", n)
	}
}

// update returns the i'th update a test runner reports.
func update(i int) (progress, checkpoint jobs.Payload) {
	return payload(fmt.Sprintf(`{"generation":%d}`, i)), payload(fmt.Sprintf(`{"cp":%d}`, i))
}

// payload parses a test's JSON text into a jobs.Payload, panicking on
// invalid JSON (runners call it off the test goroutine).
func payload(s string) jobs.Payload {
	p, err := jobs.ParsePayload("test", json.RawMessage(s))
	if err != nil {
		panic(err)
	}
	return p
}

// TestHeldCheckpointDoesNotStallRunner: while the coordinator holds a
// worker's checkpoint request, the runner keeps reporting updates and
// returns; once the hold is released every update is committed in the
// order reported, and the finished job keeps the last checkpoint.
func TestHeldCheckpointDoesNotStallRunner(t *testing.T) {
	hd := newHold("/v1/fleet/checkpoint")
	h := newHarness(t, time.Hour, hd)
	returned := make(chan struct{})
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(update(1))
		waitFor(t, hd.arrived, "the first checkpoint request reached the coordinator")
		for i := 2; i <= 5; i++ {
			upd(update(i))
		}
		close(returned)
		return payload(`{"ok":true}`), nil
	})
	w.Start()
	defer w.Kill()

	j, _ := h.store.Create("search", nil)
	waitFor(t, returned, "the runner returned while a checkpoint request was held")
	hd.open()
	got := waitState(t, h, j.ID, jobs.Done)
	want := []string{`{"generation":1}`, `{"generation":2}`, `{"generation":3}`, `{"generation":4}`, `{"generation":5}`}
	if seq := h.progressOf(j.ID); !slices.Equal(seq, want) {
		t.Errorf("committed progress %v, want %v", seq, want)
	}
	if string(got.Checkpoint) != `{"cp":5}` || string(got.Progress) != `{"generation":5}` {
		t.Errorf("finished job keeps checkpoint %s, progress %s; want the 5th", got.Checkpoint, got.Progress)
	}
	if cs := h.coord.Stats(); cs.Checkpoints != 5 {
		t.Errorf("coordinator committed %d updates, want 5", cs.Checkpoints)
	}
}

// TestCloseDeliversQueuedUpdates: a worker drained while updates sit in
// its job's outbox releases the job with its newest checkpoint, and the
// next claimant resumes from it.
func TestCloseDeliversQueuedUpdates(t *testing.T) {
	hd := newHold("/v1/fleet/checkpoint")
	h := newHarness(t, time.Hour, hd)
	queued := make(chan struct{})
	a := h.newWorker(t, "a", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(update(1))
		waitFor(t, hd.arrived, "the first checkpoint request reached the coordinator")
		upd(update(2))
		upd(update(3))
		close(queued)
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	})
	a.Start()

	j, _ := h.store.Create("search", nil)
	waitFor(t, queued, "the runner queued updates behind a held request")
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), eventDeadline)
		defer cancel()
		closed <- a.Close(ctx)
	}()
	hd.open()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	got, _ := h.store.Get(j.ID)
	if got.State != jobs.Queued || got.Lease != nil || string(got.Checkpoint) != `{"cp":3}` {
		t.Fatalf("drained job %s (lease %v) with checkpoint %s; want queued with the 3rd", got.State, got.Lease, got.Checkpoint)
	}
	if ws, cs := a.Stats(), h.coord.Stats(); ws.CheckpointsShipped != 3 || cs.Checkpoints != 3 || cs.Releases != 1 {
		t.Errorf("worker shipped %d updates; coordinator committed %d, released %d; want 3, 3, 1",
			ws.CheckpointsShipped, cs.Checkpoints, cs.Releases)
	}

	claimed := make(chan *jobs.Job, 1)
	b := h.newWorker(t, "b", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		claimed <- j
		return payload(`{}`), nil
	})
	b.Start()
	defer b.Kill()
	if next := <-claimed; string(next.Checkpoint) != `{"cp":3}` || next.Attempts != 2 {
		t.Errorf("next claimant got checkpoint %s on attempt %d; want the 3rd on attempt 2", next.Checkpoint, next.Attempts)
	}
	waitState(t, h, j.ID, jobs.Done)
}

// TestKillAbandonsHeldRequest: Kill returns while the coordinator still
// holds the worker's checkpoint request, without waiting for an answer,
// and the killed worker commits nothing: neither the held update, nor the
// ones queued behind it, nor a completion.
func TestKillAbandonsHeldRequest(t *testing.T) {
	hd := newHold("/v1/fleet/checkpoint")
	h := newHarness(t, time.Hour, hd)
	queued := make(chan struct{})
	a := h.newWorker(t, "a", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(update(1))
		waitFor(t, hd.arrived, "the checkpoint request reached the coordinator")
		upd(update(2))
		close(queued)
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	})
	a.Start()

	j, _ := h.store.Create("search", nil)
	waitFor(t, queued, "the runner queued an update behind a held request")
	killed := make(chan struct{})
	go func() { a.Kill(); close(killed) }()
	waitFor(t, killed, "Kill returned while a checkpoint request was held")

	got, _ := h.store.Get(j.ID)
	if got.State != jobs.Running || got.Lease.Owner != "a" || got.Progress != nil || got.Checkpoint != nil {
		t.Errorf("job after kill %+v; want running under a's lease with nothing committed", got)
	}
	for _, r := range h.requestsFor(j.ID, got.Lease.Token) {
		if r.Path == "/v1/fleet/complete" || (r.Path == "/v1/fleet/checkpoint" && len(r.Updates) != 1) {
			t.Errorf("killed worker sent %s with %d updates", r.Path, len(r.Updates))
		}
	}
	if cs, ws := h.coord.Stats(), a.Stats(); cs.Checkpoints != 0 || cs.Completes != 0 || ws.StaleLosses != 1 {
		t.Errorf("coordinator committed %d updates, %d completions; worker lost %d leases; want 0, 0, 1",
			cs.Checkpoints, cs.Completes, ws.StaleLosses)
	}
}

// TestStaleAnswerEndsShipping: once the coordinator answers a checkpoint
// request stale_lease, the worker sends nothing more under that lease —
// no later checkpoint, no completion carrying the queued updates, no
// renew — and the job's next claim runs it afresh.
func TestStaleAnswerEndsShipping(t *testing.T) {
	hd := newHold("/v1/fleet/checkpoint")
	h := newHarness(t, time.Minute, hd)
	queued := make(chan struct{})
	runner := func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		if j.Attempts > 1 {
			return payload(`{}`), nil
		}
		upd(update(1))
		waitFor(t, hd.arrived, "the checkpoint request reached the coordinator")
		upd(update(2))
		upd(update(3))
		close(queued)
		<-ctx.Done()
		return jobs.Payload{}, context.Cause(ctx)
	}
	// An hour-long heartbeat leaves the checkpoint answer as the only way
	// the worker learns its lease is gone.
	a, err := NewWorker(WorkerConfig{
		Coordinator: h.srv.URL, Node: "a", Poll: 5 * time.Millisecond,
		Heartbeat: time.Hour, Clock: h.clk.Now, Runner: runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Kill()

	j, _ := h.store.Create("search", nil)
	waitFor(t, queued, "the runner queued updates behind a held request")
	// The worker's one slot is busy: forget the claims that led here.
	for len(h.claimed) > 0 {
		<-h.claimed
	}
	first, _ := h.store.Get(j.ID)
	h.clk.Advance(2 * time.Minute)
	if rq, _, _ := h.coord.Sweep(); rq != 1 {
		t.Fatalf("sweep re-queued %d jobs, want 1", rq)
	}
	hd.open()
	// The worker claims again only after its first run has ended, so
	// every request under the first lease has been sent by then.
	waitClaimFrom(t, h, "a")
	if reqs := h.requestsFor(j.ID, first.Lease.Token); len(reqs) != 1 || reqs[0].Path != "/v1/fleet/checkpoint" {
		t.Errorf("requests under the lost lease %+v; want only the held checkpoint", reqs)
	}
	got := waitState(t, h, j.ID, jobs.Done)
	if got.Attempts != 2 || got.Checkpoint != nil {
		t.Errorf("job finished on attempt %d with checkpoint %s; want attempt 2, none", got.Attempts, got.Checkpoint)
	}
	if st := a.Stats(); st.StaleLosses != 1 || st.CheckpointsShipped != 0 {
		t.Errorf("worker stats %+v; want one stale loss, nothing shipped", st)
	}
}

// TestFullOutboxHoldsRunner: while the coordinator holds a checkpoint
// request, a runner that reports more than maxQueued updates waits for
// room instead of queueing without bound. Once the hold is released every
// update is committed in order, and no request carries more than
// maxQueued of them.
func TestFullOutboxHoldsRunner(t *testing.T) {
	hd := newHold("/v1/fleet/checkpoint")
	h := newHarness(t, time.Hour, hd)
	const n = 2*maxQueued + 3
	full := make(chan struct{})
	returned := make(chan struct{})
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
		upd(update(1))
		waitFor(t, hd.arrived, "the first checkpoint request reached the coordinator")
		for i := 2; i <= n; i++ {
			if i == maxQueued+2 {
				close(full) // updates 2..maxQueued+1 fill the outbox
			}
			upd(update(i))
		}
		close(returned)
		return payload(`{"ok":true}`), nil
	})
	w.Start()
	defer w.Kill()

	j, _ := h.store.Create("search", nil)
	waitFor(t, full, "the runner filled its outbox behind a held request")
	// A negative check: nothing can take from the outbox while the request
	// is held, so the runner must not get past its next update.
	select {
	case <-returned:
		t.Fatalf("the runner returned with more than %d updates queued", maxQueued)
	case <-time.After(20 * time.Millisecond):
	}
	hd.open()
	got := waitState(t, h, j.ID, jobs.Done)
	seq := h.progressOf(j.ID)
	if len(seq) != n {
		t.Fatalf("committed %d progress payloads, want %d", len(seq), n)
	}
	for i, p := range seq {
		if want, _ := update(i + 1); p != string(want.Bytes()) {
			t.Fatalf("progress %d committed as %s, want %s", i, p, want.Bytes())
		}
	}
	if want, _ := update(n); string(got.Progress) != string(want.Bytes()) {
		t.Errorf("finished job keeps progress %s, want %s", got.Progress, want.Bytes())
	}
	running := waitState(t, h, j.ID, jobs.Running)
	for _, r := range h.requestsFor(j.ID, running.Lease.Token) {
		if len(r.Updates) > maxQueued {
			t.Errorf("%s carried %d updates, want at most %d", r.Path, len(r.Updates), maxQueued)
		}
	}
}

// TestRefusedCompletionFailsJob: a completion the coordinator refuses as
// malformed (here standing in for a body past its size limit) is re-sent
// as a failure that carries the refusal, instead of being dropped for the
// job to rerun into the same refusal once its lease expires.
func TestRefusedCompletionFailsJob(t *testing.T) {
	h := newHarness(t, time.Hour)
	handler := h.coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/complete" {
			body, _ := io.ReadAll(r.Body)
			var req completeRequest
			json.Unmarshal(body, &req)
			if req.Result != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("request body too large"))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Node: "w1", Poll: 5 * time.Millisecond,
		Heartbeat: 10 * time.Millisecond, Clock: h.clk.Now,
		Runner: func(ctx context.Context, j *jobs.Job, upd func(p, c jobs.Payload)) (jobs.Payload, error) {
			upd(update(1))
			return payload(`{"big":true}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Kill()

	j, _ := h.store.Create("search", nil)
	got := waitState(t, h, j.ID, jobs.Failed)
	if !strings.Contains(got.Error, "refused the done completion") || !strings.Contains(got.Error, "request body too large") {
		t.Errorf("failed job error %q; want the refusal", got.Error)
	}
	if got.Attempts != 1 || got.Result != nil {
		t.Errorf("failed job on attempt %d with result %s; want attempt 1, none", got.Attempts, got.Result)
	}
}
