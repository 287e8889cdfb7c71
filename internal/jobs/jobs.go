// Package jobs is the search-job orchestration subsystem: a durable store
// (JSONL append log + periodic snapshot) plus a worker-pool manager that
// runs jobs through an injected Runner, checkpoints them on drain, and
// recovers interrupted work after a restart.
//
// The package is a stdlib-only leaf below internal/serve: the server
// injects the runner (which closes over its caches and the mapper), so
// jobs knows nothing about HTTP or search internals. It lives inside the
// determinism lint scope, so all clock reads go through an injected
// now() — tests drive it with a fake clock.
package jobs

import (
	"encoding/json"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
	// Poisoned is the quarantine state: the job exhausted its failover
	// budget (MaxAttempts) without ever completing, so the store stopped
	// re-queuing it. The failure trail records each attempt's demise.
	Poisoned State = "poisoned"
)

// Terminal reports whether the state is final: the job will never run
// again and its Result/Error fields are settled.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled || s == Poisoned
}

// Job is one unit of durable work. Request, Progress, Checkpoint, and
// Result are opaque to this package — the runner defines their schema —
// which keeps the store reusable for future job kinds.
type Job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`

	Request json.RawMessage `json:"request"`

	// Tenant names the submitting principal for quota accounting; empty
	// means the anonymous default tenant. Class is the scheduling priority
	// class ("interactive", "batch", "bulk" — the scheduler parses it; the
	// store only persists it so admission survives restart).
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`

	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`

	// Attempts counts how many times a worker picked the job up. A value
	// above 1 means the job survived a drain, crash, or requeue.
	Attempts int `json:"attempts,omitempty"`

	// MaxAttempts bounds failovers: when a lease expiry or crash recovery
	// would re-queue the job for attempt MaxAttempts+1, the store instead
	// quarantines it in state Poisoned. Zero means unlimited.
	MaxAttempts int `json:"max_attempts,omitempty"`

	// Trail is the failure trail: one line per failover (lease expiry,
	// crash recovery) and for the final quarantine decision, oldest first,
	// capped at maxTrail entries.
	Trail []string `json:"trail,omitempty"`

	// Lease is the claim currently held on a running job: which worker owns
	// it, the fencing token guarding its writes, and when the claim expires.
	// Nil for jobs that are not running.
	Lease *Lease `json:"lease,omitempty"`

	// CancelRequested marks a job a client asked to cancel while it was
	// running under a remote lease. The owning worker learns about it on its
	// next renew or checkpoint and winds the job down; if the worker is gone,
	// the lease sweep finalizes the cancellation instead of re-queuing.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Tombstone marks a deletion record in the append log (retention sweep).
	// Tombstoned jobs never appear in the in-memory map or snapshots.
	Tombstone bool `json:"tombstone,omitempty"`

	// Progress is the runner's latest progress report (for search jobs:
	// generation counters and best-so-far).
	Progress json.RawMessage `json:"progress,omitempty"`

	// Checkpoint is the runner's latest resumable state; a recovered or
	// drained job restarts from it instead of from scratch.
	Checkpoint   json.RawMessage `json:"checkpoint,omitempty"`
	CheckpointAt time.Time       `json:"checkpoint_at,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Clone returns a snapshot of the job that callers can hand across
// goroutines. Its payloads (Request, Progress, Checkpoint, Result) share
// the store's bytes, which the store only ever replaces and never writes
// into; each is capacity-capped (share), so an append by a holder copies
// instead of writing into the store's bytes. Nobody may write into a
// snapshot's payload bytes. Trail and Lease, which the store does mutate
// in place, are copied.
func (j *Job) Clone() *Job {
	if j == nil {
		return nil
	}
	c := *j
	c.Request = share(j.Request)
	c.Progress = share(j.Progress)
	c.Checkpoint = share(j.Checkpoint)
	c.Result = share(j.Result)
	if j.Trail != nil {
		c.Trail = append([]string(nil), j.Trail...)
	}
	if j.Lease != nil {
		l := *j.Lease
		c.Lease = &l
	}
	return &c
}
