// Package fleet is the multi-node execution layer of the job subsystem: a
// coordinator that leases jobs out of one durable jobs.Store over a small
// HTTP peer protocol, and workers on other processes that claim, heartbeat,
// checkpoint, and complete them.
//
// The protocol has four job endpoints plus an inventory:
//
//	POST /v1/fleet/claim       claim the oldest queued job under a TTL lease
//	POST /v1/fleet/renew       heartbeat: extend the lease, learn of cancels
//	POST /v1/fleet/checkpoint  ship a progress + checkpoint payload
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
// Fitness stays node-local: a worker's search memoizes against its own
// node's cache, and a resumed search re-seeds that cache from the tuned
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
	CodeNotQueued   = "not_queued"
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

// claimRequest asks for the oldest queued job. Node names the claimant and
// becomes the lease owner recorded in the store.
type claimRequest struct {
	Node string `json:"node"`
}

// claimResponse hands the claimed job — request, checkpoint, and lease
// (owner, fencing token, expiry) included — to the worker. An empty queue
// answers 204 with no body instead.
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

// checkpointRequest ships one progress + checkpoint payload pair under the
// lease. Nil fields leave the stored value unchanged.
type checkpointRequest struct {
	ID         string          `json:"id"`
	Token      uint64          `json:"token"`
	Progress   json.RawMessage `json:"progress,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// completeRequest finalizes the job under the lease. State must be a
// terminal jobs state — or "queued", which releases the job back to the
// queue with its checkpoint intact (the graceful half of failover, used by
// draining workers).
type completeRequest struct {
	ID     string          `json:"id"`
	Token  uint64          `json:"token"`
	State  jobs.State      `json:"state"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// completeResponse echoes the finalized job snapshot.
type completeResponse struct {
	Job *jobs.Job `json:"job"`
}

// NodeInfo is one row of the fleet inventory on GET /v1/fleet/nodes: a
// worker node's last protocol contact (claims — even empty polls —
// renewals, and checkpoints all count), how stale that contact is, the
// leases it currently holds, and a coarse state: "busy" (holds leases),
// "idle" (recent contact, no leases), or "gone" (silent for three lease
// TTLs — its jobs have already failed over).
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
