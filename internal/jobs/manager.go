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
// result payload.
type Runner func(ctx context.Context, job *Job, upd func(progress, checkpoint json.RawMessage)) (json.RawMessage, error)

// Event is one observation of a job: a state change or a progress update.
// Seq increases by 1 per job starting at 1, so clients resume streams with
// "events after seq N".
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
// compacted away and a subscriber replaying from before the retained
// window simply starts at the oldest retained event.
const maxEventHistory = 512

// Manager owns the worker pool on top of a Store. Workers pull work by
// claiming through Store.ClaimNext — the same scheduler-governed path
// fleet claims use — rather than from a private FIFO list, so an
// installed Picker (priority classes, tenant quotas) governs local
// execution too. Jobs found queued in the store at construction (fresh
// submissions from a previous process, or running jobs the store
// re-queued during crash recovery) are scheduled immediately.
type Manager struct {
	store   *Store
	runner  Runner
	workers int

	mu sync.Mutex
	// cond + wake form the scheduling signal: every event that could make
	// a claim succeed where it previously failed (submit, requeue, job
	// finish, remote complete) bumps wake and broadcasts; workers retry a
	// claim whenever wake moves past what they last saw. This is what
	// lets a quota-blocked worker sleep instead of busy-polling.
	cond     *sync.Cond
	wake     uint64
	running  map[string]context.CancelCauseFunc
	draining bool
	closed   bool
	wg       sync.WaitGroup

	evmu   sync.Mutex
	events map[string]*eventLog
}

// eventLog is one job's event history plus live subscribers.
type eventLog struct {
	seq    int
	hist   []Event
	subs   map[chan Event]bool
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
	m.cond = sync.NewCond(&m.mu)
	// wake starts at 1 while workers start having seen 0, so each worker's
	// first act is a store scan — that is what picks up recovered jobs.
	m.wake = 1
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
	if m.draining || m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.mu.Unlock()

	j, err := m.store.CreateWith(spec, admit)
	if err != nil {
		return nil, err
	}
	m.emit(j)
	m.Kick()
	return j, nil
}

// Kick wakes the worker pool to rescan the store for claimable work. Any
// event that frees capacity — a submission, a requeue, a finished or
// remotely-completed job releasing its tenant's quota — should kick.
func (m *Manager) Kick() {
	m.mu.Lock()
	m.wake++
	m.cond.Broadcast()
	m.mu.Unlock()
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
	m.mu.Lock()
	cancel, isRunning := m.running[id]
	m.mu.Unlock()
	if isRunning {
		cancel(ErrCancelled)
		j, _ := m.store.Get(id)
		return j, nil
	}

	j, ok := m.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("jobs: no job %s", id)
	}
	if j.State.Terminal() {
		return j, nil
	}
	if j.State == Running {
		// Running somewhere else: a fleet worker holds the lease.
		j2, err := m.store.RequestCancel(id)
		if err != nil {
			return nil, err
		}
		m.emit(j2)
		return j2, nil
	}
	// Queued: finalize in place; workers skip non-queued entries.
	j.State = Cancelled
	j.Error = ErrCancelled.Error()
	j.FinishedAt = m.store.Now().UTC()
	if err := m.store.Update(j); err != nil {
		return nil, err
	}
	m.emit(j)
	m.closeEvents(id)
	return j, nil
}

// Requeue schedules an already-queued job on the local worker pool — the
// coordinator calls it when a lease sweep hands a dead fleet worker's job
// back. The id is advisory: a woken worker claims through ClaimNext, which
// considers every active job, and whichever claim wins, wins.
func (m *Manager) Requeue(id string) {
	_ = id
	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return
	}
	m.wake++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Publish fans a job snapshot mutated outside the manager — by the fleet
// coordinator's claim/checkpoint/complete handlers — into the job's event
// stream, closing it when the job reached a terminal state. This is what
// lets an SSE watcher on the coordinator follow a search executing on a
// different node. A terminal snapshot also kicks the worker pool: a
// remote completion may have freed its tenant's running quota. The event
// stream keeps j itself, so the caller may read it afterwards but must not
// mutate it.
func (m *Manager) Publish(j *Job) {
	m.emit(j)
	if j.State.Terminal() {
		m.closeEvents(j.ID)
		m.Kick()
	}
}

// SweepRetention deletes terminal jobs older than the horizon from the
// store (oldest first) and drops their event logs. Returns how many jobs
// were evicted.
func (m *Manager) SweepRetention(horizon time.Duration) int {
	removed := m.store.SweepRetention(horizon)
	for _, id := range removed {
		m.dropEvents(id)
	}
	return len(removed)
}

// dropEvents forgets a deleted job's event history entirely.
func (m *Manager) dropEvents(id string) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	if log, ok := m.events[id]; ok {
		for ch := range log.subs {
			delete(log.subs, ch)
			close(ch)
		}
		delete(m.events, id)
	}
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
	m.closed = true
	for _, cancel := range m.running {
		cancel(ErrDraining)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// work is one worker's loop: wait for a wake signal, then keep claiming
// and running jobs until the store has nothing claimable for us.
func (m *Manager) work() {
	defer m.wg.Done()
	var seen uint64
	for {
		m.mu.Lock()
		for m.wake == seen && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		seen = m.wake
		m.mu.Unlock()
		for m.runNext() {
		}
	}
}

// runNext claims one job through the scheduler-governed store path and
// runs it to completion. Returns false when nothing was claimable —
// queue empty, every queued tenant at quota, or the manager draining.
func (m *Manager) runNext() bool {
	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return false
	}
	m.mu.Unlock()
	j, err := m.store.ClaimNext(localOwner, 0)
	if err != nil {
		return false
	}
	m.runOne(j)
	// Finishing a job may unblock quota-held work for the other workers.
	m.Kick()
	return true
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
		// Drain won the race: put the job back without running it.
		m.mu.Unlock()
		cancel(ErrDraining)
		m.store.Release(id, token, true)
		return
	}
	m.running[id] = cancel
	m.mu.Unlock()
	m.emit(j)

	upd := func(progress, checkpoint json.RawMessage) {
		if j2, err := m.store.CommitUpdate(id, token, progress, checkpoint); err == nil {
			m.emit(j2)
		}
	}

	result, err := m.runProtected(ctx, j, upd)

	m.mu.Lock()
	delete(m.running, id)
	m.mu.Unlock()
	cancel(nil)

	cause := context.Cause(ctx)
	var fin *Job
	var ferr error
	switch {
	case err == nil:
		fin, ferr = m.store.Complete(id, token, Done, result, "")
	case errors.Is(cause, ErrDraining) || errors.Is(err, ErrDraining):
		// Back to the queue with the latest checkpoint; the next start
		// resumes it.
		if rel, rerr := m.store.Release(id, token, false); rerr == nil {
			m.emit(rel)
		}
		return
	case errors.Is(cause, ErrCancelled) || errors.Is(err, ErrCancelled):
		fin, ferr = m.store.Complete(id, token, Cancelled, nil, ErrCancelled.Error())
	default:
		fin, ferr = m.store.Complete(id, token, Failed, nil, err.Error())
	}
	if ferr != nil {
		return // lease lost mid-run; the current owner's writes stand
	}
	m.emit(fin)
	m.closeEvents(id)
}

// runProtected invokes the runner, converting a panic into a job failure
// instead of killing the worker.
func (m *Manager) runProtected(ctx context.Context, j *Job, upd func(progress, checkpoint json.RawMessage)) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: runner panicked: %v", r)
		}
	}()
	return m.runner(ctx, j, upd)
}

// emit appends a job snapshot to its event log and fans it out. A
// subscriber too slow to keep up has its channel closed; it can
// re-subscribe from the last seq it saw.
//
// emit takes ownership of j: every caller passes a snapshot the store
// has just cloned for it, and subscribers read that snapshot from other
// goroutines, so nothing may mutate j after the call.
func (m *Manager) emit(j *Job) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	log := m.eventLogLocked(j.ID)
	log.seq++
	ev := Event{Seq: log.seq, Job: j}
	log.hist = append(log.hist, ev)
	if len(log.hist) > maxEventHistory {
		// Compact: drop the oldest events. Seq numbering is untouched, so a
		// subscriber resuming from before the retained window replays from
		// the oldest retained event (and one pointing past the end replays
		// nothing at all).
		drop := len(log.hist) - maxEventHistory
		log.hist = append([]Event(nil), log.hist[drop:]...)
	}
	for ch := range log.subs {
		select {
		case ch <- ev:
		default:
			delete(log.subs, ch)
			close(ch)
		}
	}
}

// closeEvents marks a job's stream finished: live subscribers are closed
// after the history they already received, and later subscribers get the
// replay followed by an immediate close.
func (m *Manager) closeEvents(id string) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	log := m.eventLogLocked(id)
	log.closed = true
	for ch := range log.subs {
		delete(log.subs, ch)
		close(ch)
	}
}

func (m *Manager) eventLogLocked(id string) *eventLog {
	log, ok := m.events[id]
	if !ok {
		log = &eventLog{subs: map[chan Event]bool{}}
		m.events[id] = log
	}
	return log
}

// Subscribe returns a channel that replays the job's event history with
// Seq > after and then streams live events. The channel closes when the
// job reaches a terminal state or the subscriber falls too far behind
// (re-subscribe with the last seq to continue). The returned stop function
// must be called when done.
func (m *Manager) Subscribe(id string, after int) (<-chan Event, func()) {
	m.evmu.Lock()
	defer m.evmu.Unlock()
	log := m.eventLogLocked(id)
	ch := make(chan Event, len(log.hist)+64)
	for _, ev := range log.hist {
		if ev.Seq > after {
			ch <- ev
		}
	}
	if log.closed {
		close(ch)
		return ch, func() {}
	}
	log.subs[ch] = true
	stop := func() {
		m.evmu.Lock()
		defer m.evmu.Unlock()
		if log.subs[ch] {
			delete(log.subs, ch)
			close(ch)
		}
	}
	return ch, stop
}
