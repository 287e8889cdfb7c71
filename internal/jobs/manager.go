package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Cancellation causes, distinguishable via context.Cause inside a runner
// and inspected by the worker to pick the job's final state.
var (
	// ErrCancelled means a client cancelled the job; it finishes in state
	// Cancelled.
	ErrCancelled = errors.New("jobs: cancelled by client")
	// ErrDraining means the server is shutting down; the job goes back to
	// Queued with its checkpoint retained, to be resumed after restart.
	ErrDraining = errors.New("jobs: server draining")
)

// Runner executes one job. It must honor ctx (returning context.Cause(ctx)
// once cancelled) and should call upd with fresh progress and checkpoint
// payloads as it goes — the checkpoint is what makes drain and crash
// recovery resume instead of restart. On success it returns the job's
// result payload, which it builds with Marshal: json.Marshal's bytes are
// canonical already, so the store keeps them without scanning or copying
// them. A zero progress or checkpoint leaves the stored one unchanged.
type Runner func(ctx context.Context, job *Job, upd func(progress, checkpoint Payload)) (Payload, error)

// Event is one committed change to a job: a state change, a progress
// update or a cancel request. Seq increases by 1 per job starting at 1, in
// the order the store committed the changes, so readers resume streams
// with "events after seq N" (Manager.Events). An Event and its Job are
// immutable once emitted: every reader shares them.
type Event struct {
	Seq int
	Job *Job
}

// Config sizes a Manager.
type Config struct {
	// Workers is the number of concurrent job executors. Zero means 1; a
	// negative value means none — a coordinator-only node that stores and
	// leases jobs out to fleet workers but never runs one itself.
	Workers int
	// Runner executes jobs; required.
	Runner Runner
}

// localOwner names the lease owner of this process's own workers. Their
// leases are process-local (no TTL): they die with the process and are
// re-queued by crash recovery, not by the sweep.
const localOwner = "local"

// maxEventHistory bounds one job's retained event history. A long search
// emits one event per generation; past the cap the oldest events are
// compacted away and a reader replaying from before the retained window
// simply starts at the oldest retained event.
const maxEventHistory = 512

// Manager owns the worker pool on top of a Store. Workers pull work by
// claiming through Store.ClaimWait — the same scheduler-governed path
// fleet claims use — rather than from a private FIFO list, so an
// installed Picker (priority classes, tenant quotas) governs local
// execution too. A worker with nothing claimable parks on the store's
// wake signal, which every submit, requeue and finish fires, so a
// quota-blocked worker sleeps instead of busy-polling. Jobs found queued
// in the store at construction (fresh submissions from a previous
// process, or running jobs the store re-queued during crash recovery)
// are scheduled immediately.
//
// The manager also keeps each job's event log — the snapshots the store
// committed, in commit order — which readers follow by cursor through
// Events.
type Manager struct {
	store   *Store
	runner  Runner
	workers int
	// parked ends the workers' parked claims; stopParks cancels it at
	// Drain.
	parked    context.Context
	stopParks context.CancelFunc

	mu       sync.Mutex
	running  map[string]context.CancelCauseFunc
	draining bool
	wg       sync.WaitGroup

	evmu   sync.Mutex
	events map[string]*eventLog
}

// eventLog is one job's retained event history. hist only ever grows at
// its end, and compaction re-slices its front away, so nothing writes into
// an element a reader's view of it can see.
type eventLog struct {
	seq  int
	hist []Event
	// next is made when a reader first waits and closed by the next
	// append.
	next   chan struct{}
	closed bool
}

// NewManager starts the worker pool. The caller keeps ownership of the
// store and closes it after Drain.
func NewManager(store *Store, cfg Config) (*Manager, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("jobs: config needs a Runner")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	m := &Manager{
		store:   store,
		runner:  cfg.Runner,
		workers: cfg.Workers,
		running: map[string]context.CancelCauseFunc{},
		events:  map[string]*eventLog{},
	}
	m.parked, m.stopParks = context.WithCancel(context.Background())
	store.setObserver(m.observe)
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.work()
	}
	return m, nil
}

// Submit enqueues a new job and returns its stored snapshot.
func (m *Manager) Submit(kind string, req json.RawMessage) (*Job, error) {
	return m.SubmitWith(CreateSpec{Kind: kind, Request: req}, nil)
}

// SubmitWith enqueues a new job with scheduling attributes after the
// admission check (run atomically inside the store; see CreateWith). An
// admission refusal returns the admit error unwrapped so callers can map
// it onto their own taxonomy (the server turns quota errors into 429s).
func (m *Manager) SubmitWith(spec CreateSpec, admit func(active []*Job) error) (*Job, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.mu.Unlock()

	return m.store.CreateWith(spec, admit)
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (*Job, bool) { return m.store.Get(id) }

// List returns snapshots of all jobs in creation order.
func (m *Manager) List() []*Job { return m.store.List() }

// Cancel stops a job. A queued job is finalized immediately; a locally
// running job's context is cancelled with ErrCancelled and its worker
// finalizes it; a job running under a remote fleet lease is flagged
// CancelRequested — the owning worker learns on its next heartbeat, and
// if that worker is dead, the lease sweep finalizes the cancellation.
// Cancelling a terminal job is a no-op. The returned snapshot may still
// show state Running for an in-flight cancellation; it may also be the
// one the job's event stream holds, so callers must not mutate it.
func (m *Manager) Cancel(id string) (*Job, error) {
	if m.cancelLocal(id) {
		j, _ := m.store.Get(id)
		return j, nil
	}
	j, err := m.store.CancelQueued(id)
	if err != nil || j.State != Running {
		return j, err
	}
	// Running somewhere else — a fleet worker holds the lease — or claimed
	// here but not yet registered in m.running, which runOne and observe
	// cover.
	return m.store.RequestCancel(id)
}

// cancelLocal cancels the job's run on this manager's workers with
// ErrCancelled, reporting whether it had one.
func (m *Manager) cancelLocal(id string) bool {
	m.mu.Lock()
	cancel, ok := m.running[id]
	m.mu.Unlock()
	if ok {
		cancel(ErrCancelled)
	}
	return ok
}

// dropEvents forgets a deleted job's event history entirely. Retention
// deletes only terminal jobs, whose logs are closed, so no reader waits
// on it.
func (m *Manager) dropEvents(id string) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	delete(m.events, id)
}

// Stats is the metrics view of the job system.
type Stats struct {
	QueueDepth int
	Running    int
	Done       int
	Failed     int
	Cancelled  int
	Poisoned   int
	// CheckpointAge is the staleness of the most out-of-date checkpoint
	// among running jobs, 0 when no running job has checkpointed yet.
	CheckpointAge time.Duration
	// QueueDepthByClass and QueueDepthByTenant break the queue down for
	// the scheduler metrics; keys are the raw persisted strings.
	QueueDepthByClass  map[string]int
	QueueDepthByTenant map[string]int
}

// Stats derives gauges from the store, so they survive restarts.
func (m *Manager) Stats() Stats { return m.store.stats() }

// stats counts the stored jobs under the store lock, cloning none of
// them, so a metrics scrape allocates nothing per job held.
func (s *Store) stats() Stats {
	now := s.now()
	st := Stats{QueueDepthByClass: map[string]int{}, QueueDepthByTenant: map[string]int{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch j.State {
		case Queued:
			st.QueueDepth++
			st.QueueDepthByClass[j.Class]++
			st.QueueDepthByTenant[j.Tenant]++
		case Running:
			st.Running++
			if !j.CheckpointAt.IsZero() {
				if age := now.Sub(j.CheckpointAt); age > st.CheckpointAge {
					st.CheckpointAge = age
				}
			}
		case Done:
			st.Done++
		case Failed:
			st.Failed++
		case Cancelled:
			st.Cancelled++
		case Poisoned:
			st.Poisoned++
		}
	}
	return st
}

// Drain stops the manager for shutdown: new submissions are refused,
// running jobs are cancelled with ErrDraining (their runners checkpoint
// and the workers re-queue them), and Drain blocks until every worker has
// finished or ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	for _, cancel := range m.running {
		cancel(ErrDraining)
	}
	m.mu.Unlock()
	m.stopParks()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// work is one worker's loop: claim through the scheduler-governed store
// path, parked while nothing is claimable (queue empty, every queued
// tenant at quota), and run each claimed job to completion, until Drain
// ends the park or the store closes.
func (m *Manager) work() {
	defer m.wg.Done()
	for m.parked.Err() == nil {
		j, err := m.store.ClaimWait(m.parked, localOwner, 0)
		if err != nil {
			return
		}
		m.runOne(j)
	}
}

// runOne executes a single claimed job end to end. The claim went
// through the same lease path fleet workers use — a process-local lease
// with a fencing token — so every write to a running job, local or
// remote, is guarded by the same stale-lease check.
func (m *Manager) runOne(j *Job) {
	id := j.ID
	token := j.Lease.Token

	ctx, cancel := context.WithCancelCause(context.Background())
	m.mu.Lock()
	if m.draining {
		// Drain won the race: put the job back without running it (a job
		// a cancel flagged meanwhile is finalized instead).
		m.mu.Unlock()
		cancel(ErrDraining)
		m.store.Release(id, token, true)
		return
	}
	m.running[id] = cancel
	m.mu.Unlock()
	// A cancel that landed between the claim and the registration above
	// found no run to cancel and flagged the job instead; observe cancels
	// the run for a flag committed from here on.
	if cur, ok := m.store.Get(id); ok && cur.CancelRequested {
		cancel(ErrCancelled)
	}

	upd := func(progress, checkpoint Payload) {
		m.store.CommitUpdate(id, token, progress, checkpoint)
	}

	result, err := m.runProtected(ctx, j, upd)

	m.mu.Lock()
	delete(m.running, id)
	m.mu.Unlock()
	cancel(nil)

	// A refused write means the lease was lost mid-run; the current
	// owner's writes stand.
	cause := context.Cause(ctx)
	switch {
	case err == nil:
		m.store.Complete(id, token, Done, result, "")
	case errors.Is(cause, ErrDraining) || errors.Is(err, ErrDraining):
		// Back to the queue with the latest checkpoint; the next start
		// resumes it.
		m.store.Release(id, token, false)
	case errors.Is(cause, ErrCancelled) || errors.Is(err, ErrCancelled):
		m.store.Complete(id, token, Cancelled, Payload{}, ErrCancelled.Error())
	default:
		m.store.Complete(id, token, Failed, Payload{}, err.Error())
	}
}

// runProtected invokes the runner, converting a panic into a job failure
// instead of killing the worker.
func (m *Manager) runProtected(ctx context.Context, j *Job, upd func(progress, checkpoint Payload)) (result Payload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: runner panicked: %v", r)
		}
	}()
	return m.runner(ctx, j, upd)
}

// observe is the store's observer (see Store.observe): it runs under the
// store lock, once per committed change and in commit order. A snapshot
// joins the job's event log, which closes once the job is terminal; a
// tombstone drops the log. A cancel request for a job running on this
// manager's workers cancels the run.
func (m *Manager) observe(j *Job) {
	if j.Tombstone {
		m.dropEvents(j.ID)
		return
	}
	m.emit(j)
	if j.CancelRequested && !j.State.Terminal() {
		m.cancelLocal(j.ID)
	}
}

// emit appends a job snapshot to its event log, closes the log if the
// snapshot is terminal, and wakes the readers waiting for it.
//
// emit takes ownership of j: the store has just cloned it for this
// commit, and readers share it from other goroutines, so nothing may
// mutate j after the call.
func (m *Manager) emit(j *Job) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	log := m.eventLogLocked(j.ID)
	log.seq++
	log.hist = append(log.hist, Event{Seq: log.seq, Job: j})
	if drop := len(log.hist) - maxEventHistory; drop > 0 {
		// Compact by re-slicing, which leaves readers' views valid. Seq
		// numbering is untouched, so a reader resuming from before the
		// retained window replays from the oldest retained event (and one
		// pointing past the end replays nothing at all).
		log.hist = log.hist[drop:]
	}
	if j.State.Terminal() {
		log.closed = true
	}
	if log.next != nil {
		close(log.next)
		log.next = nil
	}
}

func (m *Manager) eventLogLocked(id string) *eventLog {
	log, ok := m.events[id]
	if !ok {
		log = &eventLog{}
		m.events[id] = log
	}
	return log
}

// Events returns the job's retained events with Seq > after, oldest
// first, and a channel the next event closes. A reader follows a job by
// reading after the last seq it saw each time next closes; it is never
// dropped, and one that falls behind the retention window resumes at the
// oldest retained event. evs is a capacity-capped view of the log, not a
// copy: it stays valid because events are immutable and the log only
// grows. next is nil once the log is closed — the job is terminal,
// deleted or unknown — and nothing more will come.
//
// A job that was already terminal when this process first needed its
// event log (it finished before a restart) has nothing left to stream:
// its log is the stored snapshot as event 1, closed.
func (m *Manager) Events(id string, after int) (evs []Event, next <-chan struct{}) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	log, ok := m.events[id]
	if !ok {
		// Read the store without evmu: the store calls observe, which takes
		// evmu, under its own lock, so the locks nest only that way.
		m.evmu.Unlock()
		j, found := m.store.Get(id)
		m.evmu.Lock()
		if log, ok = m.events[id]; !ok {
			if !found {
				// Never created, or deleted by retention: nothing will stream.
				return nil, nil
			}
			log = m.eventLogLocked(id)
			if j.State.Terminal() {
				log.seq = 1
				log.hist = []Event{{Seq: 1, Job: j}}
				log.closed = true
			}
		}
	}
	n := len(log.hist)
	oldest := log.seq - n + 1
	evs = log.hist[min(max(after-oldest+1, 0), n):n:n]
	if log.closed {
		return evs, nil
	}
	if log.next == nil {
		log.next = make(chan struct{})
	}
	return evs, log.next
}
