// Package fleet is the multi-node execution layer of the job subsystem: a
// coordinator that leases jobs out of one durable jobs.Store over a small
// HTTP peer protocol, and workers on other processes that claim, heartbeat,
// checkpoint, and complete them.
//
// The protocol has four job endpoints plus an inventory:
//
//	POST /v1/fleet/claim       claim the next queued job under a TTL lease,
//	                           parking up to wait_ms while none is claimable
//	POST /v1/fleet/renew       heartbeat: extend the lease, learn of cancels
//	POST /v1/fleet/checkpoint  ship queued progress + checkpoint updates
//	POST /v1/fleet/complete    finalize (or release) the job under the lease
//	GET  /v1/fleet/nodes       fleet inventory: per-node heartbeat age + state
//
// Claims are not strictly FIFO: the store's installed Picker (the
// weighted-fair scheduler in internal/sched, wired by the composition
// root) chooses which queued job each claim hands out, so fleet workers
// obey the same priority classes and tenant quotas as local ones.
//
// Safety rests on the store's fencing tokens: every claim carries a token
// that increases monotonically across the store's lifetime, every write a
// worker sends quotes it, and the store rejects writes under a superseded
// token with jobs.ErrStaleLease (wire code "stale_lease"). A partitioned
// worker whose lease expired can therefore never commit a result — its job
// was re-queued from its last generation-boundary checkpoint and belongs to
// whoever claimed it next. Because the checkpoint codec resumes a search
// with a byte-identical trajectory, migration across nodes is invisible in
// the job's result and trace.
//
// Fitness stays local to the search: a worker's search memoizes in its own
// private cache, and a resumed search re-seeds that cache from the tuned
// statistics its checkpoint carries, so no evaluation state crosses the
// wire beyond the checkpoint itself.
//
// The package sits beside the jobs store in the dependency graph: it
// imports only internal/jobs, and the job runner is injected, so fleet
// never learns the mapper's types. It is inside the determinism lint
// scope, so all clock reads go through injected now() functions.
package fleet

import (
	"encoding/json"
	"time"

	"repro/internal/jobs"
)

// Wire error codes, mirroring the jobs package's coded errors so a remote
// worker sees the same taxonomy as an in-process one.
const (
	CodeStaleLease  = "stale_lease"
	CodeUnknownJob  = "unknown_job"
	CodeBadRequest  = "bad_request"
	CodeBadState    = "bad_state"
	CodeStoreFailed = "store_failed"
)

// errorBody is the protocol's error envelope: a human-readable message and
// a stable machine code.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// claimRequest asks for the next queued job. Node names the claimant and
// becomes the lease owner recorded in the store. WaitMS is how long the
// coordinator may park the claim while nothing is claimable, waking it at
// each submit, requeue or finish; the coordinator caps it at its lease
// TTL, and zero (an older worker) answers at once.
type claimRequest struct {
	Node   string `json:"node"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// claimResponse hands the claimed job — request, checkpoint, and lease
// (owner, fencing token, expiry) included — to the worker. A claim that
// parked without finding work answers 204 with no body instead.
type claimResponse struct {
	Job *jobs.Job `json:"job"`
}

// renewRequest is the heartbeat: extend the lease on job ID held under
// Token.
type renewRequest struct {
	ID    string `json:"id"`
	Token uint64 `json:"token"`
}

// leaseResponse answers renew and checkpoint: the new expiry and whether a
// client asked to cancel the job (cancellation rides the heartbeat).
type leaseResponse struct {
	Expires         time.Time `json:"expires,omitempty"`
	CancelRequested bool      `json:"cancel_requested,omitempty"`
}

// jobUpdate is one progress + checkpoint pair, as the runner reported it
// to its update callback. Nil fields leave the stored value unchanged.
type jobUpdate struct {
	Progress   json.RawMessage `json:"progress,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// checkpointRequest ships the updates a worker queued for one job since
// its last request, oldest first, under the lease. The coordinator commits
// them in order, one job event each, and stops at the first it refuses;
// the entries before it stay committed.
type checkpointRequest struct {
	ID      string      `json:"id"`
	Token   uint64      `json:"token"`
	Updates []jobUpdate `json:"updates"`
}

// completeRequest finalizes the job under the lease. State must be a
// terminal jobs state — or "queued", which releases the job back to the
// queue with its checkpoint intact (the graceful half of failover, used by
// draining workers). Updates are the ones still queued when the runner
// returned; the coordinator commits them in order, exactly as a checkpoint
// request would, before it changes the state, so a finished job keeps its
// last generation's checkpoint and a released one resumes from it.
type completeRequest struct {
	ID      string          `json:"id"`
	Token   uint64          `json:"token"`
	State   jobs.State      `json:"state"`
	Updates []jobUpdate     `json:"updates,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// completeResponse echoes the finalized job snapshot.
type completeResponse struct {
	Job *jobs.Job `json:"job"`
}

// NodeInfo is one row of the fleet inventory on GET /v1/fleet/nodes: a
// worker node's last protocol contact (claims — even empty ones, counted
// when their park ends — renewals, and checkpoints all count), how stale
// that contact is, the leases it currently holds, and a coarse state:
// "busy" (holds leases), "idle" (recent contact, no leases), or "gone"
// (silent for three lease TTLs — its jobs have already failed over). A
// park never outlasts one TTL, so an idle worker never reads as gone.
type NodeInfo struct {
	Node       string    `json:"node"`
	LastSeen   time.Time `json:"last_seen"`
	AgeSeconds float64   `json:"age_seconds"`
	LeasesHeld int       `json:"leases_held"`
	Claims     uint64    `json:"claims"`
	Polls      uint64    `json:"polls"`
	State      string    `json:"state"`
}

// nodesResponse answers GET /v1/fleet/nodes.
type nodesResponse struct {
	Nodes []NodeInfo `json:"nodes"`
}
