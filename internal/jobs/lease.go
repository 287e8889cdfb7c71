package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Lease is a claim on a running job. The Token is a fencing token: it
// increases monotonically across every claim the store ever grants, so a
// write stamped with an old token — a worker that lost its lease to a
// partition, an expiry, or a re-claim — is always distinguishable from the
// current owner's writes and is rejected with ErrStaleLease.
//
// A zero Expires marks a process-local lease: the claim of an in-process
// worker, valid until the owning process exits. Process-local leases are
// never swept by the TTL sweeper (the process renews by existing) but are
// always re-queued by crash recovery at the next Open. Remote leases carry
// a real expiry and must be renewed before it passes.
type Lease struct {
	Owner   string    `json:"owner"`
	Token   uint64    `json:"token"`
	Expires time.Time `json:"expires,omitempty"`
}

// Expired reports whether the lease's TTL has passed at time now.
// Process-local leases (zero Expires) never expire.
func (l *Lease) Expired(now time.Time) bool {
	return l != nil && !l.Expires.IsZero() && !now.Before(l.Expires)
}

// Coded lease errors. The fleet protocol maps these onto wire codes
// ("stale_lease", "unknown_job", ...) so a remote worker sees the same
// taxonomy as an in-process one.
var (
	// ErrStaleLease rejects a lease-guarded write whose token no longer
	// matches the job's current lease — the writer's claim expired, was
	// re-assigned, or never existed. A worker receiving it must discard its
	// in-flight work; the job's truth lives with the current lease holder.
	ErrStaleLease = errors.New("jobs: stale lease")
	// ErrNoQueuedJob means ClaimNext found nothing to hand out.
	ErrNoQueuedJob = errors.New("jobs: no queued job")
	// ErrUnknownJob names a job the store has never seen (or has evicted).
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// Picker is the scheduler's dequeue hook: given snapshots, in creation
// order, of every claimable queued job (no cancel requested) and every
// running job, it returns the ID of the job the claim should hand out, or
// "" to decline the claim entirely (every queued job's tenant is at its
// running quota, say). It runs under the store lock, so it must be fast,
// must not call back into the store, and must be deterministic — two
// stores replaying the same sequence of claims must pick the same jobs.
type Picker func(queued, running []*Job) string

// ClaimNext atomically claims the next queued job for owner: the job
// moves to Running with a fresh fencing token and, for ttl > 0, an expiry
// of now+ttl. Expired leases are swept first, so a claim after a worker
// death hands out the dead worker's job (checkpoint intact). With no
// picker installed the oldest queued job wins (FIFO); a picker sees
// queued and running snapshots and chooses, which is how the weighted-
// fair scheduler and tenant quotas govern both the local worker pool and
// fleet claims through one code path. Returns ErrNoQueuedJob when the
// queue is empty or the picker declines.
func (s *Store) ClaimNext(owner string, ttl time.Duration) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claimNextLocked(owner, ttl)
}

// ClaimWait is ClaimNext that parks while nothing is claimable: a failed
// claim is retried each time a job's state changes in a way that can let
// it succeed (see setStateLocked) until one succeeds, ctx ends, or the
// store closes. It tries at least once, so a ctx that is already done
// makes it a plain ClaimNext. When ctx ends it returns the last claim's
// error — ErrNoQueuedJob when the queue simply stayed empty — and after
// Close it returns ErrNoQueuedJob without claiming. Each attempt reads
// the wake signal under the same lock hold as its claim, so an event
// that lands between a failed claim and the wait is never missed.
func (s *Store) ClaimWait(ctx context.Context, owner string, ttl time.Duration) (*Job, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrNoQueuedJob
		}
		j, err := s.claimNextLocked(owner, ttl)
		if err == nil {
			s.mu.Unlock()
			return j, nil
		}
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, err
		case <-wake:
		}
	}
}

func (s *Store) claimNextLocked(owner string, ttl time.Duration) (*Job, error) {
	s.sweepLeasesLocked()
	queued := make([]*Job, 0, len(s.active))
	running := make([]*Job, 0, len(s.active))
	for _, j := range s.active {
		switch {
		case j.State == Queued && !j.CancelRequested:
			queued = append(queued, j)
		case j.State == Running:
			running = append(running, j)
		}
	}
	if len(queued) == 0 {
		return nil, ErrNoQueuedJob
	}
	slices.SortFunc(queued, byCreation)
	if s.picker == nil {
		return s.claimLocked(queued[0], owner, ttl) // oldest first
	}
	slices.SortFunc(running, byCreation)
	for i, j := range queued {
		queued[i] = j.Clone()
	}
	for i, j := range running {
		running[i] = j.Clone()
	}
	id := s.picker(queued, running)
	if id == "" {
		return nil, ErrNoQueuedJob
	}
	j, ok := s.jobs[id]
	if !ok || j.State != Queued || j.CancelRequested {
		return nil, fmt.Errorf("jobs: picker chose unclaimable job %q", id)
	}
	return s.claimLocked(j, owner, ttl)
}

// LeasesHeld counts the running jobs each lease owner holds. It walks the
// active-job index under the store lock and clones no job, so its cost
// does not grow with the store's history.
func (s *Store) LeasesHeld() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := map[string]int{}
	for _, j := range s.active {
		if j.State == Running && j.Lease != nil && j.Lease.Owner != "" {
			held[j.Lease.Owner]++
		}
	}
	return held
}

// claimLocked moves a queued job to Running under a fresh lease. If the
// claim cannot be logged, every field it touched is restored, so the job
// stays queued and claimable exactly as before.
func (s *Store) claimLocked(j *Job, owner string, ttl time.Duration) (*Job, error) {
	seq, state, lease, attempts, started := s.leaseSeq, j.State, j.Lease, j.Attempts, j.StartedAt
	s.leaseSeq++
	l := &Lease{Owner: owner, Token: s.leaseSeq}
	if ttl > 0 {
		l.Expires = s.now().UTC().Add(ttl)
	}
	s.setStateLocked(j, Running)
	j.Lease = l
	j.Attempts++
	j.StartedAt = s.now().UTC()
	c, err := s.commitLocked(j)
	if err != nil {
		// Queued and Running share the active index and entering Running
		// woke no parked claim, so restoring the fields undoes the claim
		// without waking anyone to retry a log that just failed.
		s.leaseSeq, j.State, j.Lease, j.Attempts, j.StartedAt = seq, state, lease, attempts, started
		return nil, err
	}
	return c, nil
}

// leaseWriteLocked validates a lease-guarded write: the job must exist, be
// running, and carry an unexpired lease with exactly this token.
func (s *Store) leaseWriteLocked(id string, token uint64) (*Job, error) {
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State != Running || j.Lease == nil || j.Lease.Token != token {
		return nil, fmt.Errorf("%w: job %s is not running under token %d", ErrStaleLease, id, token)
	}
	if j.Lease.Expired(s.now()) {
		return nil, fmt.Errorf("%w: lease on %s expired at %s", ErrStaleLease, id, j.Lease.Expires.Format(time.RFC3339))
	}
	return j, nil
}

// Renew extends a lease by ttl from now. It is the heartbeat of the fleet
// protocol: a renewal that comes back ErrStaleLease tells the worker its
// claim is gone and its job now belongs to someone else. The returned
// snapshot carries CancelRequested, so cancellation rides the heartbeat.
// A renewal is the one committed write that is not a job event: it moves
// nothing a client sees but the lease expiry.
func (s *Store) Renew(id string, token uint64, ttl time.Duration) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.leaseWriteLocked(id, token)
	if err != nil {
		return nil, err
	}
	if !j.Lease.Expires.IsZero() || ttl > 0 {
		if ttl <= 0 {
			return nil, fmt.Errorf("jobs: renew of %s needs a positive ttl", id)
		}
		j.Lease.Expires = s.now().UTC().Add(ttl)
	}
	if err := s.appendLocked(j); err != nil {
		return nil, err
	}
	return j.Clone(), nil
}

// CommitUpdate is the lease-guarded progress/checkpoint write. A zero
// Payload leaves the stored value unchanged. The store keeps the
// payloads' bytes as they are, without copying or scanning them again.
// Renews nothing: pair it with Renew (remote workers ship checkpoints and
// heartbeats on separate cadences).
func (s *Store) CommitUpdate(id string, token uint64, progress, checkpoint Payload) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.leaseWriteLocked(id, token)
	if err != nil {
		return nil, err
	}
	if progress.raw != nil {
		j.Progress = progress.raw
	}
	if checkpoint.raw != nil {
		j.Checkpoint = checkpoint.raw
		j.CheckpointAt = s.now().UTC()
	}
	return s.commitLocked(j)
}

// Complete finalizes a running job under its lease: state must be Done,
// Failed, or Cancelled. The lease is consumed. A stale token cannot commit
// a result — the acceptance rule that makes multi-node execution safe. A
// zero result stores none.
func (s *Store) Complete(id string, token uint64, state State, result Payload, errMsg string) (*Job, error) {
	if !state.Terminal() {
		return nil, fmt.Errorf("jobs: complete with non-terminal state %s", state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.leaseWriteLocked(id, token)
	if err != nil {
		return nil, err
	}
	s.setStateLocked(j, state)
	j.Result = result.raw
	j.Error = errMsg
	j.FinishedAt = s.now().UTC()
	j.Lease = nil
	return s.commitLocked(j)
}

// Release hands a running job back to the queue under its lease — the
// graceful half of failover, used by drains: the checkpoint stays, so the
// next claimant resumes instead of restarting. A job flagged for
// cancellation is finalized as Cancelled instead. decAttempt compensates
// the claim's increment for a job that was claimed but never actually ran.
func (s *Store) Release(id string, token uint64, decAttempt bool) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.leaseWriteLocked(id, token)
	if err != nil {
		return nil, err
	}
	s.releaseLocked(j)
	if decAttempt {
		j.Attempts--
	}
	return s.commitLocked(j)
}

// releaseLocked takes a running job off its lease without a result: back
// to the queue, keeping checkpoint and attempt count — unless the job is
// flagged CancelRequested, which finalizes it as Cancelled, since claims
// skip flagged jobs and a queued one would never run or finish.
func (s *Store) releaseLocked(j *Job) {
	j.Lease = nil
	if j.CancelRequested {
		s.cancelLocked(j)
		return
	}
	s.setStateLocked(j, Queued)
	j.StartedAt = time.Time{}
}

// cancelLocked finalizes a job as Cancelled.
func (s *Store) cancelLocked(j *Job) {
	s.setStateLocked(j, Cancelled)
	j.Error = ErrCancelled.Error()
	j.FinishedAt = s.now().UTC()
}

// RequestCancel flags a remotely-leased running job for cancellation. The
// owning worker observes the flag on its next renew or checkpoint; queued
// and terminal jobs are the manager's to finalize directly.
func (s *Store) RequestCancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.CancelRequested || j.State.Terminal() {
		return j.Clone(), nil
	}
	j.CancelRequested = true
	return s.commitLocked(j)
}

// CancelQueued finalizes a queued job as Cancelled. A job in any other
// state is left exactly as it is and its current snapshot returned, so a
// cancel that lost the race to a claim sees Running and cancels the run
// instead of rolling the claim back.
func (s *Store) CancelQueued(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State != Queued {
		return j.Clone(), nil
	}
	s.cancelLocked(j)
	return s.commitLocked(j)
}

// SweepExpiredLeases re-queues every running job whose lease TTL has
// passed — the failover path for a crashed or partitioned worker. A job
// whose cancellation was requested while its worker died is finalized as
// Cancelled instead of re-queued, and a job whose failover budget is
// exhausted (Attempts >= MaxAttempts) is quarantined in state Poisoned
// rather than handed to yet another worker. Returns the re-queued,
// cancelled, and poisoned snapshots. Claims run the same sweep first, so
// its changes reach the observer and the counters (SweepCounts) whichever
// ran it.
func (s *Store) SweepExpiredLeases() (requeued, cancelled, poisoned []*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLeasesLocked()
}

func (s *Store) sweepLeasesLocked() (requeued, cancelled, poisoned []*Job) {
	now := s.now()
	var expired []*Job
	for _, j := range s.active {
		if j.State == Running && j.Lease.Expired(now) {
			expired = append(expired, j)
		}
	}
	slices.SortFunc(expired, byCreation)
	for _, j := range expired {
		if j.CancelRequested {
			s.releaseLocked(j) // finalizes the flagged job as Cancelled
			if c, err := s.commitLocked(j); err == nil {
				cancelled = append(cancelled, c)
			}
			continue
		}
		j.Trail = trailAppend(j.Trail, fmt.Sprintf("%s attempt %d (%s): lease expired; failing over", now.UTC().Format(time.RFC3339), j.Attempts, j.Lease.Owner))
		if s.exhaustedLocked(j) {
			s.poisonLocked(j)
			if c, err := s.commitLocked(j); err == nil {
				s.sweepPoisons++
				poisoned = append(poisoned, c)
			}
			continue
		}
		s.releaseLocked(j)
		if c, err := s.commitLocked(j); err == nil {
			s.failovers++
			requeued = append(requeued, c)
		}
	}
	return requeued, cancelled, poisoned
}

// maxTrail bounds one job's retained failure trail; older entries are
// dropped first, so the quarantine decision and the freshest failures
// always survive.
const maxTrail = 32

func trailAppend(trail []string, entry string) []string {
	trail = append(trail, entry)
	if len(trail) > maxTrail {
		trail = append([]string(nil), trail[len(trail)-maxTrail:]...)
	}
	return trail
}

// exhaustedLocked reports whether one more failover would exceed the
// job's attempt budget.
func (s *Store) exhaustedLocked(j *Job) bool {
	return j.MaxAttempts > 0 && j.Attempts >= j.MaxAttempts
}

// poisonLocked quarantines a job that kept killing its workers (or kept
// being killed by them): terminal state Poisoned, failure trail closed
// with the verdict, checkpoint retained for post-mortems.
func (s *Store) poisonLocked(j *Job) {
	j.Trail = trailAppend(j.Trail, fmt.Sprintf("%s poisoned after %d attempts (max_attempts %d)", s.now().UTC().Format(time.RFC3339), j.Attempts, j.MaxAttempts))
	s.setStateLocked(j, Poisoned)
	j.Error = fmt.Sprintf("jobs: poisoned after %d failed attempts", j.Attempts)
	j.FinishedAt = s.now().UTC()
	j.Lease = nil
	s.poisonSeq++
}

// SweepRetention deletes terminal jobs whose FinishedAt lies past the
// retention horizon, oldest first, so the store stops growing forever.
// Deletions are durable (tombstones in the append log, absent from the
// next snapshot), and each tombstone reaches the observer, which drops
// the job's event log. Returns the removed job IDs. A horizon <= 0 keeps
// everything.
func (s *Store) SweepRetention(horizon time.Duration) []string {
	if horizon <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-horizon)
	var victims []*Job
	for _, j := range s.jobs {
		if j.State.Terminal() && !j.FinishedAt.IsZero() && j.FinishedAt.Before(cutoff) {
			victims = append(victims, j)
		}
	}
	slices.SortFunc(victims, func(a, b *Job) int {
		if c := a.FinishedAt.Compare(b.FinishedAt); c != 0 {
			return c
		}
		return byCreation(a, b)
	})
	removed := make([]string, 0, len(victims))
	for _, j := range victims {
		// Delete before appending: the append may rotate the log into a
		// snapshot, and the snapshot must not contain the job the tombstone
		// is deleting.
		s.deleteLocked(j.ID)
		if _, err := s.commitLocked(&Job{ID: j.ID, Tombstone: true}); err != nil {
			break
		}
		removed = append(removed, j.ID)
	}
	return removed
}
