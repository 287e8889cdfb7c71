package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// DefaultLeaseTTL is the lease duration granted on claim when the
// coordinator's config leaves TTL zero. It bounds failover latency: a dead
// worker's job is re-queued one sweep after this much silence.
const DefaultLeaseTTL = 15 * time.Second

// Coordinator serves the fleet protocol over one jobs.Store: it leases
// queued jobs to remote workers, applies their checkpoints and results
// under fencing-token guard, and re-queues the jobs of workers that stop
// heartbeating. One process can be coordinator and worker at once — the
// store's in-process manager claims through the same lease path, so local
// and remote execution contend safely.
type Coordinator struct {
	// Store is the durable job store being leased out; required.
	Store *jobs.Store
	// TTL is the lease duration granted on claim (DefaultLeaseTTL if zero).
	TTL time.Duration
	// OnEvent, when set, observes every job snapshot the protocol mutates —
	// the composition root fans these into the job event streams so an SSE
	// watcher on the coordinator follows a search executing on another node.
	// (The store itself wakes the local manager and parked claims when a
	// sweep or release re-queues a job.)
	OnEvent func(*jobs.Job)

	claims     atomic.Uint64
	emptyClaim atomic.Uint64
	renews     atomic.Uint64
	stales     atomic.Uint64
	checkps    atomic.Uint64
	completes  atomic.Uint64
	releases   atomic.Uint64
	failovers  atomic.Uint64
	sweepCanc  atomic.Uint64
	sweepPois  atomic.Uint64

	// nodes is the fleet inventory: last contact per worker node, fed by
	// every protocol request that names its sender. An empty claim counts
	// as contact when its park ends: an idle worker's claim parks for up
	// to its Poll (never past one TTL) and is then sent again at once, and
	// that steady contact is exactly what distinguishes "idle" from "gone".
	nodeMu sync.Mutex
	nodes  map[string]*nodeState

	// parks is the parent of every parked claim's context; StopParking
	// cancels it, ending them all.
	parkMu    sync.Mutex
	parks     context.Context
	stopParks context.CancelFunc
}

// nodeState is one worker node's liveness record.
type nodeState struct {
	lastSeen time.Time
	claims   uint64
	polls    uint64
}

// CoordinatorStats is a point-in-time snapshot of the protocol counters,
// exported on /metrics.
type CoordinatorStats struct {
	// Claims counts leases granted; EmptyClaims, claim polls that found an
	// empty queue.
	Claims      uint64
	EmptyClaims uint64
	// Renews counts successful heartbeats; StaleRejections, writes refused
	// because the sender's fencing token was superseded.
	Renews          uint64
	StaleRejections uint64
	// Checkpoints counts progress + checkpoint updates committed, whether
	// they came in a checkpoint request or rode on a completion;
	// Completes, jobs finalized by workers; Releases, jobs handed back by
	// draining workers.
	Checkpoints uint64
	Completes   uint64
	Releases    uint64
	// Failovers counts jobs re-queued by the lease sweep after their worker
	// went silent; SweepCancels, cancel-requested jobs the sweep finalized;
	// SweepPoisons, jobs the sweep quarantined for exhausting max_attempts.
	Failovers    uint64
	SweepCancels uint64
	SweepPoisons uint64
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Claims:          c.claims.Load(),
		EmptyClaims:     c.emptyClaim.Load(),
		Renews:          c.renews.Load(),
		StaleRejections: c.stales.Load(),
		Checkpoints:     c.checkps.Load(),
		Completes:       c.completes.Load(),
		Releases:        c.releases.Load(),
		Failovers:       c.failovers.Load(),
		SweepCancels:    c.sweepCanc.Load(),
		SweepPoisons:    c.sweepPois.Load(),
	}
}

func (c *Coordinator) ttl() time.Duration {
	if c.TTL > 0 {
		return c.TTL
	}
	return DefaultLeaseTTL
}

// Handler mounts the fleet protocol. The returned handler matches the full
// /v1/fleet/... paths, so it can be mounted on a shared mux under the
// "/v1/fleet/" prefix or serve a dedicated peer listener on its own.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/claim", c.handleClaim)
	mux.HandleFunc("POST /v1/fleet/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/fleet/checkpoint", c.handleCheckpoint)
	mux.HandleFunc("POST /v1/fleet/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/fleet/nodes", c.handleNodes)
	return mux
}

// touchNode records contact from a worker node. Every claim, granted or
// answered empty after its park, counts as a poll; granted claims are
// also counted on their own, so the inventory shows the claim cadence.
func (c *Coordinator) touchNode(node string, claimed bool) {
	if node == "" {
		return
	}
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	if c.nodes == nil {
		c.nodes = map[string]*nodeState{}
	}
	st := c.nodes[node]
	if st == nil {
		st = &nodeState{}
		c.nodes[node] = st
	}
	st.lastSeen = c.Store.Now().UTC()
	st.polls++
	if claimed {
		st.claims++
	}
}

// goneAfter is the silence threshold past which a node is reported
// "gone" rather than "idle": three lease TTLs without any protocol
// contact — enough for the sweep to have already failed its jobs over.
func (c *Coordinator) goneAfter() time.Duration { return 3 * c.ttl() }

// Nodes reports the fleet inventory: every worker node that ever
// contacted this coordinator, its heartbeat age, the leases it currently
// holds, and whether it is busy, idle, or gone. Sorted by node name.
func (c *Coordinator) Nodes() []NodeInfo {
	now := c.Store.Now().UTC()
	held := c.Store.LeasesHeld()
	c.nodeMu.Lock()
	out := make([]NodeInfo, 0, len(c.nodes))
	for name, st := range c.nodes {
		age := now.Sub(st.lastSeen)
		info := NodeInfo{
			Node:       name,
			LastSeen:   st.lastSeen,
			AgeSeconds: age.Seconds(),
			LeasesHeld: held[name],
			Claims:     st.claims,
			Polls:      st.polls,
		}
		switch {
		case info.LeasesHeld > 0:
			info.State = "busy"
		case age >= c.goneAfter():
			info.State = "gone"
		default:
			info.State = "idle"
		}
		out = append(out, info)
	}
	c.nodeMu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &nodesResponse{Nodes: c.Nodes()})
}

// Sweep re-queues jobs whose leases expired, finalizes expired jobs whose
// cancellation was requested, and quarantines jobs that exhausted their
// failover budget, reporting all three counts. The composition root calls
// it periodically; claims also sweep implicitly, so a busy fleet fails
// over even without the timer.
func (c *Coordinator) Sweep() (requeued, cancelled, poisoned int) {
	req, canc, pois := c.Store.SweepExpiredLeases()
	for _, j := range req {
		c.failovers.Add(1)
		c.event(j)
	}
	for _, j := range canc {
		c.sweepCanc.Add(1)
		c.event(j)
	}
	for _, j := range pois {
		c.sweepPois.Add(1)
		c.event(j)
	}
	return len(req), len(canc), len(pois)
}

func (c *Coordinator) event(j *jobs.Job) {
	if c.OnEvent != nil {
		c.OnEvent(j)
	}
}

// parkContext returns the context every parked claim derives from.
func (c *Coordinator) parkContext() context.Context {
	c.parkMu.Lock()
	defer c.parkMu.Unlock()
	if c.parks == nil {
		c.parks, c.stopParks = context.WithCancel(context.Background())
	}
	return c.parks
}

// StopParking ends every parked claim with an empty answer and makes
// later claims answer without parking. Call it when the node shuts down
// (serve.Server.Close does) and register it with RegisterOnShutdown on
// each http.Server carrying the protocol, so a graceful Shutdown never
// waits out a park. Safe to call more than once.
func (c *Coordinator) StopParking() {
	c.parkContext()
	c.stopParks()
}

// handleClaim grants the next claimable job. When there is none it parks
// the claim — for the worker's wait_ms, capped at the lease TTL — and
// retries at each store event that can make a claim succeed; claim order
// and fencing are ClaimNext's own. The park also ends when the worker
// hangs up or StopParking runs.
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Node == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("claim needs a node name"))
		return
	}
	park, cancel := context.WithTimeout(r.Context(), min(time.Duration(req.WaitMS)*time.Millisecond, c.ttl()))
	defer cancel()
	defer context.AfterFunc(c.parkContext(), cancel)()
	j, err := c.Store.ClaimWait(park, req.Node, c.ttl())
	if err == nil && r.Context().Err() != nil {
		// The worker hung up as the grant was made: hand the job straight
		// back rather than strand it under a lease until the sweep.
		c.Store.Release(j.ID, j.Lease.Token, true)
		return
	}
	if errors.Is(err, jobs.ErrNoQueuedJob) {
		c.touchNode(req.Node, false)
		c.emptyClaim.Add(1)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err != nil {
		writeStoreError(w, err)
		return
	}
	c.touchNode(req.Node, true)
	c.claims.Add(1)
	c.event(j)
	writeJSON(w, http.StatusOK, &claimResponse{Job: j})
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, err := c.Store.Renew(req.ID, req.Token, c.ttl())
	if err != nil {
		c.countStale(err)
		writeStoreError(w, err)
		return
	}
	if j.Lease != nil {
		c.touchNode(j.Lease.Owner, false)
	}
	c.renews.Add(1)
	writeJSON(w, http.StatusOK, leaseOf(j))
}

// commitUpdates applies a worker's queued updates in order, one
// CommitUpdate and one job event each, so every generation's progress
// reaches the event log. It stops at the first refused update and returns
// the last committed snapshot (nil if none was).
func (c *Coordinator) commitUpdates(id string, token uint64, updates []jobUpdate) (*jobs.Job, error) {
	var last *jobs.Job
	for _, u := range updates {
		j, err := c.Store.CommitUpdate(id, token, u.Progress, u.Checkpoint)
		if err != nil {
			return last, err
		}
		c.checkps.Add(1)
		c.event(j)
		last = j
	}
	return last, nil
}

func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req checkpointRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("checkpoint carries no updates"))
		return
	}
	j, err := c.commitUpdates(req.ID, req.Token, req.Updates)
	if err != nil {
		c.countStale(err)
		writeStoreError(w, err)
		return
	}
	if j.Lease != nil {
		c.touchNode(j.Lease.Owner, false)
	}
	writeJSON(w, http.StatusOK, leaseOf(j))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.State != jobs.Queued && !req.State.Terminal() {
		writeError(w, http.StatusBadRequest, CodeBadState,
			fmt.Errorf("complete with state %q; want done, failed, cancelled, or queued", req.State))
		return
	}
	j, err := c.commitUpdates(req.ID, req.Token, req.Updates)
	if err != nil {
		c.countStale(err)
		writeStoreError(w, err)
		return
	}
	switch {
	case req.State == jobs.Queued:
		// A draining worker hands the job back; its checkpoint stays, so
		// the next claimant resumes instead of restarting.
		j, err = c.Store.Release(req.ID, req.Token, false)
		if err == nil {
			c.releases.Add(1)
			c.event(j)
		}
	default:
		j, err = c.Store.Complete(req.ID, req.Token, req.State, req.Result, req.Error)
		if err == nil {
			c.completes.Add(1)
			c.event(j)
		}
	}
	if err != nil {
		c.countStale(err)
		writeStoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &completeResponse{Job: j})
}

func (c *Coordinator) countStale(err error) {
	if errors.Is(err, jobs.ErrStaleLease) {
		c.stales.Add(1)
	}
}

func leaseOf(j *jobs.Job) *leaseResponse {
	resp := &leaseResponse{CancelRequested: j.CancelRequested}
	if j.Lease != nil {
		resp.Expires = j.Lease.Expires
	}
	return resp
}

// writeStoreError maps the store's coded errors onto wire statuses: stale
// leases are 409 (the caller's claim is gone), unknown jobs 404, anything
// else a 500.
func writeStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrStaleLease):
		writeError(w, http.StatusConflict, CodeStaleLease, err)
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, CodeUnknownJob, err)
	default:
		writeError(w, http.StatusInternalServerError, CodeStoreFailed, err)
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, &errorBody{Error: err.Error(), Code: code})
}
