package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	coord *Coordinator
	srv   *httptest.Server
	// changed holds a token after the coordinator commits a job snapshot;
	// waitState sleeps on it between store reads.
	changed chan struct{}
	// claimed receives the node name of each claim as it reaches the
	// coordinator, before the coordinator handles it; sends that find the
	// buffer full are dropped.
	claimed chan string
}

func newHarness(t *testing.T, ttl time.Duration) *harness {
	t.Helper()
	clk := newTestClock()
	store, err := jobs.Open("", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	changed := make(chan struct{}, 1)
	coord := &Coordinator{Store: store, TTL: ttl, OnEvent: func(*jobs.Job) {
		select {
		case changed <- struct{}{}:
		default: // a token is already pending
		}
	}}
	claimed := make(chan string, 64)
	handler := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/fleet/claim" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req claimRequest
			json.Unmarshal(body, &req)
			select {
			case claimed <- req.Node:
			default:
			}
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return &harness{clk: clk, store: store, coord: coord, srv: srv, changed: changed, claimed: claimed}
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

// waitState waits until the job reaches want or the deadline passes,
// reading the store after each snapshot the coordinator commits. Every
// state the fleet tests wait for is committed through the coordinator.
func waitState(t *testing.T, h *harness, id string, want jobs.State) *jobs.Job {
	t.Helper()
	deadline := time.After(eventDeadline)
	for {
		j, ok := h.store.Get(id)
		if ok && j.State == want {
			return j
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never reached %s (now %+v)", id, want, j)
		case <-h.changed:
		}
	}
}

func TestWorkerClaimsRunsCompletes(t *testing.T) {
	h := newHarness(t, time.Hour)
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		upd(json.RawMessage(`{"generation":1}`), json.RawMessage(`{"cp":1}`))
		return json.RawMessage(`{"echo":` + string(j.Request) + `}`), nil
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
	cs := h.coord.Stats()
	if cs.Claims != 1 || cs.Checkpoints != 1 || cs.Completes != 1 {
		t.Errorf("coordinator stats %+v", cs)
	}
	// The store turns Done inside the complete handler, a beat before the
	// worker bumps its own counter, and no coordinator event follows that
	// bump: drain the worker, which returns once its slot loop has exited.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatal(err)
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
	blockingRunner := func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		upd(json.RawMessage(`{"generation":2}`), json.RawMessage(`{"next_gen":2}`))
		once.Do(func() { close(checkpointed) })
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	a := h.newWorker(t, "a", blockingRunner)
	a.Start()

	j, _ := h.store.Create("search", nil)
	<-checkpointed
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
	b := h.newWorker(t, "b", func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		got <- j
		return json.RawMessage(`{"done":true}`), nil
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
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, context.Cause(ctx)
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
	w := h.newWorker(t, "w1", func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		upd(nil, json.RawMessage(`{"next_gen":5}`))
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, context.Cause(ctx)
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
	runner := func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		mu.Lock()
		runs[j.ID]++
		mu.Unlock()
		return json.RawMessage(`{}`), nil
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
	runner := func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		arrived <- struct{}{}
		select {
		case <-release:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
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
			if _, err := h.store.Complete(c.ID, c.Lease.Token, jobs.Done, json.RawMessage(`{}`), ""); err != nil {
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
	post("/v1/fleet/checkpoint", fmt.Sprintf(`{"id":%q,"token":%d,
		"progress": { "generation" : 2 },
		"checkpoint": { "next_gen" : 2,
			"pop" : [ [1, 2], [3] ], "s" : "<a & b>" } }`, j.ID, claimed.Lease.Token))
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
	w := h.newWorkerPoll(t, "w1", time.Hour, func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
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
	a := h.newWorker(t, "a", func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, context.Cause(ctx)
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
	b := h.newWorkerPoll(t, "b", time.Hour, func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		got <- j
		return json.RawMessage(`{}`), nil
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
		Runner: func(ctx context.Context, j *jobs.Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
			return nil, fmt.Errorf("no job should run")
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
