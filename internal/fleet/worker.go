package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// ErrLeaseLost is the cancellation cause a worker uses when the coordinator
// rejected its fencing token (or its lease expired while partitioned): the
// job now belongs to another node, so the worker abandons its in-flight
// work without reporting anything — its writes would be refused anyway.
var ErrLeaseLost = errors.New("fleet: lease lost")

// WorkerConfig wires one fleet worker to a coordinator.
type WorkerConfig struct {
	// Coordinator is the peer base URL, e.g. "http://10.0.0.1:8081".
	Coordinator string
	// Node names this worker; it becomes the lease owner in the store and
	// the worker label on /metrics. Required.
	Node string
	// Slots is the number of jobs run concurrently (default 1).
	Slots int
	// Poll bounds the claim cadence while the queue is empty (default
	// 500ms). Each claim asks the coordinator to park it for up to Poll,
	// answering as soon as a job is submitted, re-queued or finished; an
	// empty answer after a full park is followed by the next claim at
	// once. A park ends early when the worker closes, the coordinator
	// shuts down, or it reaches the coordinator's lease TTL; the slot then
	// sleeps out the rest of Poll, and after a failed claim a full Poll,
	// so no slot claims more than once per Poll.
	Poll time.Duration
	// Heartbeat is the lease renewal cadence (default 3s). Keep it well
	// under the coordinator's lease TTL: a worker that misses every renew
	// inside one TTL loses its jobs to the sweep.
	Heartbeat time.Duration
	// Runner executes claimed jobs; required. It must honor ctx exactly as
	// the in-process manager's runner does. Its update callback does not
	// wait on the network: each (progress, checkpoint) pair joins the
	// job's outbox, a per-job queue that the job's lease goroutine sends
	// to the coordinator in order between heartbeats, as many entries per
	// request as have queued since the last one. The callback waits only
	// while maxQueued updates are already queued. Whatever is still queued
	// when the runner returns rides on the job's completion (or release).
	// The payloads are kept until sent, which is safe because a
	// jobs.Payload's bytes are immutable.
	Runner jobs.Runner
	// Clock is the injected time source (tests); nil means the wall clock.
	Clock func() time.Time
}

// Worker claims jobs from a coordinator and runs them under a heartbeated
// lease. Start launches the slot loops; Close drains gracefully (jobs are
// released back with their queued updates and so their newest
// checkpoints); Kill abandons everything without contacting the
// coordinator, simulating a crash — the lease sweep then re-queues the
// work from the last checkpoint the coordinator committed.
type Worker struct {
	cfg WorkerConfig
	now func() time.Time

	mu      sync.Mutex
	running map[string]context.CancelCauseFunc
	// stop ends the slot loops and their in-flight claims; shutdown
	// halts it.
	stop    context.Context
	halt    context.CancelFunc
	stopped bool
	wg      sync.WaitGroup
	// peers is the context of every renew, checkpoint and complete
	// request; Kill cancels it, abandoning those in flight as a crash
	// would. Close leaves it alone, so a drain delivers what is queued.
	peers context.Context
	crash context.CancelFunc

	claims      atomic.Uint64
	renews      atomic.Uint64
	renewNanos  atomic.Int64
	checkpoints atomic.Uint64
	completes   atomic.Uint64
	staleLosses atomic.Uint64
}

// WorkerStats is the per-worker metrics snapshot.
type WorkerStats struct {
	Node string
	// LeasesHeld is the number of jobs currently running under this
	// worker's leases.
	LeasesHeld int
	// Claims counts successful claims.
	Claims uint64
	// Renews counts successful heartbeats; RenewLatency is the most recent
	// renew round-trip as measured by the injected clock.
	Renews       uint64
	RenewLatency time.Duration
	// CheckpointsShipped counts progress + checkpoint updates the
	// coordinator accepted, whether a checkpoint request carried them or
	// they rode on a completion; Completes, finalizations (or releases) it
	// accepted. An update the runner reported is durable only once
	// counted here: a crash drops whatever was still queued.
	CheckpointsShipped uint64
	Completes          uint64
	// StaleLosses counts jobs abandoned because the lease was lost.
	StaleLosses uint64
}

// NewWorker validates the config and builds a worker; Start launches it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if cfg.Node == "" {
		return nil, fmt.Errorf("fleet: worker needs a node name")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("fleet: worker needs a runner")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 3 * time.Second
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	w := &Worker{
		cfg:     cfg,
		now:     now,
		running: map[string]context.CancelCauseFunc{},
	}
	w.stop, w.halt = context.WithCancel(context.Background())
	w.peers, w.crash = context.WithCancel(context.Background())
	return w, nil
}

// Start launches the slot loops.
func (w *Worker) Start() {
	for i := 0; i < w.cfg.Slots; i++ {
		w.wg.Add(1)
		go w.slot()
	}
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	held := len(w.running)
	w.mu.Unlock()
	return WorkerStats{
		Node:               w.cfg.Node,
		LeasesHeld:         held,
		Claims:             w.claims.Load(),
		Renews:             w.renews.Load(),
		RenewLatency:       time.Duration(w.renewNanos.Load()),
		CheckpointsShipped: w.checkpoints.Load(),
		Completes:          w.completes.Load(),
		StaleLosses:        w.staleLosses.Load(),
	}
}

// Close drains the worker: no new claims (a parked one is abandoned),
// running jobs are cancelled with the draining cause (their runners
// checkpoint), and each job is released back to the coordinator's queue
// together with the updates still in its outbox, so it resumes from its
// newest checkpoint. Blocks until every slot exits or ctx expires.
func (w *Worker) Close(ctx context.Context) error {
	w.shutdown(jobs.ErrDraining)
	done := make(chan struct{})
	go func() { w.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: worker drain timed out: %w", ctx.Err())
	}
}

// Kill abandons the worker as a crash would: in-flight peer requests are
// cancelled, runners are cancelled with the lease-lost cause, their
// outboxes are dropped, and nothing more is reported to the coordinator.
// The jobs stay Running in the store until their leases expire and the
// sweep hands them to another worker — the failover path under test.
func (w *Worker) Kill() {
	w.crash()
	w.shutdown(ErrLeaseLost)
	w.wg.Wait()
}

func (w *Worker) shutdown(cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	w.halt()
	for _, cancel := range w.running {
		cancel(cause)
	}
}

// slot is one claim-run-complete loop. The Poll timer starts before the
// claim, so after an empty answer the slot waits only for what is left of
// the Poll — nothing after a full park; after an error it waits a full
// Poll from then.
func (w *Worker) slot() {
	defer w.wg.Done()
	for w.stop.Err() == nil {
		next := time.NewTimer(w.cfg.Poll)
		j, err := w.claim()
		if j != nil {
			next.Stop()
			w.runJob(j)
			continue
		}
		if err != nil {
			next.Stop()
			next = time.NewTimer(w.cfg.Poll)
		}
		select {
		case <-w.stop.Done():
			next.Stop()
			return
		case <-next.C:
		}
	}
}

// runJob executes one claimed job under its lease: a lease goroutine
// renews it on a ticker and sends the runner's queued updates while the
// runner works, and once both have stopped the outcome is reported under
// the fencing token with the updates still queued — unless the lease was
// lost, in which case the worker walks away silently.
func (w *Worker) runJob(j *jobs.Job) {
	token := j.Lease.Token

	ctx, cancel := context.WithCancelCause(context.Background())
	w.mu.Lock()
	if w.stopped {
		// Shutdown raced the claim: release the job right back.
		w.mu.Unlock()
		cancel(jobs.ErrDraining)
		w.complete(j.ID, token, jobs.Queued, nil, nil, "")
		return
	}
	w.running[j.ID] = cancel
	w.mu.Unlock()

	box := newOutbox()
	runDone := make(chan struct{})
	leaseDone := make(chan struct{})
	go func() {
		defer close(leaseDone)
		w.holdLease(ctx, cancel, j.ID, token, j.Lease.Expires, box, runDone)
	}()

	result, err := w.runProtected(ctx, j, box.put)

	// The lease goroutine finishes the request it has in flight before the
	// completion goes out, so the coordinator commits updates in the order
	// the runner reported them.
	close(runDone)
	<-leaseDone
	updates := box.take()
	w.mu.Lock()
	delete(w.running, j.ID)
	w.mu.Unlock()
	cancel(nil)

	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, ErrLeaseLost):
		// The job belongs to another node now; saying anything would only
		// earn a stale-lease rejection.
		w.staleLosses.Add(1)
	case err == nil:
		w.complete(j.ID, token, jobs.Done, updates, result.Bytes(), "")
	case errors.Is(cause, jobs.ErrDraining) || errors.Is(err, jobs.ErrDraining):
		w.complete(j.ID, token, jobs.Queued, updates, nil, "")
	case errors.Is(cause, jobs.ErrCancelled) || errors.Is(err, jobs.ErrCancelled):
		w.complete(j.ID, token, jobs.Cancelled, updates, nil, jobs.ErrCancelled.Error())
	default:
		w.complete(j.ID, token, jobs.Failed, updates, nil, err.Error())
	}
}

// maxQueued bounds a job's outbox. The runner's update callback blocks
// while this many updates wait unsent, so a slow coordinator holds back
// the search instead of letting checkpoints pile up in memory, and no
// request carries more than maxQueued of them.
const maxQueued = 32

// outbox is one running job's ordered queue of updates not yet sent. put
// is the runner's update callback: it never touches the network, and
// waits only while the outbox is full.
type outbox struct {
	mu      sync.Mutex
	updates []jobUpdate
	// room is signalled when take empties the queue or close ends it.
	room sync.Cond
	// closed is set once nothing more will be sent; put then drops.
	closed bool
	// ready holds a token while updates may be non-empty.
	ready chan struct{}
}

func newOutbox() *outbox {
	o := &outbox{ready: make(chan struct{}, 1)}
	o.room.L = &o.mu
	return o
}

func (o *outbox) put(progress, checkpoint jobs.Payload) {
	o.mu.Lock()
	for len(o.updates) >= maxQueued && !o.closed {
		o.room.Wait()
	}
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.updates = append(o.updates, jobUpdate{Progress: progress.Bytes(), Checkpoint: checkpoint.Bytes()})
	o.mu.Unlock()
	select {
	case o.ready <- struct{}{}:
	default: // a token is already pending
	}
}

// take empties the outbox, returning its updates oldest first.
func (o *outbox) take() []jobUpdate {
	o.mu.Lock()
	defer o.mu.Unlock()
	u := o.updates
	o.updates = nil
	o.room.Broadcast()
	return u
}

// close releases a put waiting for room and makes later ones drop; take
// still returns what was queued.
func (o *outbox) close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed = true
	o.room.Broadcast()
}

// holdLease keeps one job's lease until its runner returns (runDone): it
// renews the lease on the Heartbeat ticker and sends the queued updates,
// everything queued so far in one checkpoint request, in between. A
// transient error drops that request (a dropped batch's successor carries
// newer state); once the coordinator has been unreachable past the lease
// expiry (by this worker's own clock), the worker assumes the sweep took
// the job — the partitioned-worker half of lease safety. That, a
// lease-fatal answer, and Kill cancel the job with ErrLeaseLost and end
// the goroutine, which then sends nothing more for the job. A cancel
// request rides back on either answer. What is queued when holdLease
// returns is left for the completion.
func (w *Worker) holdLease(ctx context.Context, cancel context.CancelCauseFunc,
	id string, token uint64, expires time.Time, box *outbox, runDone chan struct{}) {
	defer box.close()
	tk := time.NewTicker(w.cfg.Heartbeat)
	defer tk.Stop()
	cancelled := ctx.Done()
	for {
		var (
			lease   leaseResponse
			err     error
			shipped int
		)
		select {
		case <-runDone:
			return
		case <-cancelled:
			if errors.Is(context.Cause(ctx), ErrLeaseLost) {
				return
			}
			// Draining or cancelled: keep the lease while the runner winds
			// down, so it stays ours until the completion commits.
			cancelled = nil
			continue
		case <-box.ready:
			select {
			case <-runDone:
				return // the completion carries the rest
			default:
			}
			updates := box.take()
			if len(updates) == 0 {
				continue
			}
			err = w.post("/v1/fleet/checkpoint", &checkpointRequest{ID: id, Token: token, Updates: updates}, &lease)
			shipped = len(updates)
		case <-tk.C:
			start := w.now()
			err = w.post("/v1/fleet/renew", &renewRequest{ID: id, Token: token}, &lease)
			if err == nil {
				w.renews.Add(1)
				w.renewNanos.Store(int64(w.now().Sub(start)))
			}
		}
		if errors.Is(context.Cause(ctx), ErrLeaseLost) {
			return // killed while the request was in flight
		}
		if err != nil {
			if isLeaseFatal(err) || (!expires.IsZero() && w.now().After(expires)) {
				cancel(ErrLeaseLost)
				return
			}
			continue
		}
		w.checkpoints.Add(uint64(shipped))
		if !lease.Expires.IsZero() {
			expires = lease.Expires
		}
		if lease.CancelRequested {
			cancel(jobs.ErrCancelled)
		}
	}
}

// runProtected converts a runner panic into a job failure.
func (w *Worker) runProtected(ctx context.Context, j *jobs.Job, upd func(progress, checkpoint jobs.Payload)) (result jobs.Payload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: runner panicked: %v", r)
		}
	}()
	return w.cfg.Runner(ctx, j, upd)
}

// claim asks the coordinator for a job, letting it park the request for
// up to Poll (in whole milliseconds, rounded up); nil without error means
// nothing became claimable. Shutdown cancels the request.
func (w *Worker) claim() (*jobs.Job, error) {
	var resp claimResponse
	wait := int64((w.cfg.Poll + time.Millisecond - 1) / time.Millisecond)
	status, err := w.postStatus(w.stop, "/v1/fleet/claim", &claimRequest{Node: w.cfg.Node, WaitMS: wait}, &resp)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent || resp.Job == nil {
		return nil, nil
	}
	if resp.Job.Lease == nil {
		return nil, fmt.Errorf("fleet: claim response carries no lease")
	}
	w.claims.Add(1)
	return resp.Job, nil
}

// complete reports the job's outcome under its lease, carrying the
// updates still queued in its outbox. A request the coordinator refuses as
// malformed (400: a body past its size limit, say) would be refused again
// after the lease expires and the job reruns, so the job is failed with
// the refusal instead.
func (w *Worker) complete(id string, token uint64, state jobs.State, updates []jobUpdate, result json.RawMessage, errMsg string) {
	var resp completeResponse
	err := w.post("/v1/fleet/complete",
		&completeRequest{ID: id, Token: token, State: state, Updates: updates, Result: result, Error: errMsg}, &resp)
	var we *wireError
	switch {
	case err == nil:
		w.checkpoints.Add(uint64(len(updates)))
		w.completes.Add(1)
	case isLeaseFatal(err):
		w.staleLosses.Add(1)
	case errors.As(err, &we) && we.Status == http.StatusBadRequest && (state != jobs.Failed || len(updates) > 0 || result != nil):
		w.complete(id, token, jobs.Failed, nil, nil, fmt.Sprintf("fleet: coordinator refused the %s completion: %s", state, we.Msg))
	}
}

// wireError is a decoded protocol error response.
type wireError struct {
	Status int
	Code   string
	Msg    string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("fleet: peer answered %d (%s): %s", e.Status, e.Code, e.Msg)
}

// isLeaseFatal reports whether a peer error means this worker's claim on
// the job is gone for good (as opposed to a transient network or server
// hiccup worth retrying).
func isLeaseFatal(err error) bool {
	var we *wireError
	return errors.As(err, &we) && (we.Code == CodeStaleLease || we.Code == CodeUnknownJob)
}

// post sends a lease-guarded request; Kill cancels it.
func (w *Worker) post(path string, body, into any) error {
	_, err := w.postStatus(w.peers, path, body, into)
	return err
}

// postStatus POSTs JSON to the coordinator under ctx, decoding a 2xx body
// into `into` and a non-2xx body into a *wireError.
func (w *Worker) postStatus(ctx context.Context, path string, body, into any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, &wireError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: bad peer response: %w", err)
		}
	}
	return resp.StatusCode, nil
}
