package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/mapper"
	"repro/internal/sched"
)

// searchJobKind tags search jobs in the store; future job kinds dispatch
// on it.
const searchJobKind = "search"

// SearchProgress is the progress payload attached to a running search
// job: how far the GA is and the best design point so far. BestCycles is
// omitted until the first feasible candidate (its value would be +Inf,
// which JSON cannot carry).
type SearchProgress struct {
	Generation   int      `json:"generation"`
	Generations  int      `json:"generations"`
	BestCycles   *float64 `json:"best_cycles,omitempty"`
	BestEncoding string   `json:"best_encoding,omitempty"`
}

// runSearchJob is the jobs.Runner for searchJobKind, on this node's own
// worker pool and on a fleet worker alike. It runs the search through the
// synchronous /v1/search execution path (runTreeSearch), with its own
// fitness cache and the shared worker width, checkpointing at every
// generation boundary, and resuming from job.Checkpoint when present.
func (s *Server) runSearchJob(ctx context.Context, job *jobs.Job, upd func(progress, checkpoint jobs.Payload)) (jobs.Payload, error) {
	var req SearchRequest
	if err := json.Unmarshal(job.Request, &req); err != nil {
		return jobs.Payload{}, fmt.Errorf("bad search request: %w", err)
	}
	spec, g, err := req.Resolve()
	if err != nil {
		return jobs.Payload{}, err
	}
	var lastCP json.RawMessage
	resp, err := s.runTreeSearch(ctx, &req, spec, g, searchKey(spec, g, &req), func(ts *mapper.TreeSearch) {
		if len(job.Checkpoint) > 0 {
			// A checkpoint that no longer matches (deploy changed defaults,
			// hand-edited store) must not poison the job: fall back to a
			// fresh start, which is always correct, just slower.
			if cp, err := mapper.DecodeCheckpoint(job.Checkpoint); err == nil {
				ts.Resume(cp)
			}
		} else if req.WarmStart && s.warm != nil {
			// Fresh start with warm_start requested: seed the population
			// from the best finished search sharing this point's
			// structure-only key. Only encodings transfer — fitness is
			// recomputed under this search's own cache namespace — so a
			// donor can speed the search up but never corrupt it. A job
			// resuming its own checkpoint skips this: its population is
			// already decided.
			if e, ok := s.warm.Get(warmKey(spec, g)); ok {
				if cp, err := mapper.DecodeCheckpoint(e.Checkpoint); err == nil {
					ts.WarmStart(cp)
				}
			}
		}
		ts.Progress = func(p mapper.ProgressEvent) {
			prog := SearchProgress{
				Generation:   p.Generation,
				Generations:  p.Generations,
				BestEncoding: p.BestEncoding,
			}
			if !math.IsInf(p.BestCycles, 0) {
				c := p.BestCycles
				prog.BestCycles = &c
			}
			// jobs.Marshal hands json.Marshal's bytes to the store as they
			// are: they are canonical already, and nothing writes into them
			// afterwards (the warm library shares the last checkpoint).
			pb, err := jobs.Marshal(&prog)
			if err != nil {
				return
			}
			cb, err := jobs.Marshal(p.Checkpoint)
			if err != nil {
				return
			}
			lastCP = cb.Bytes()
			upd(pb, cb)
			if s.afterUpdate != nil {
				s.afterUpdate(ctx, p.Generation)
			}
		}
	})
	if err != nil {
		return jobs.Payload{}, err
	}
	if resp.TimedOut {
		// Cancelled or draining: the manager decides the final state from
		// the cause; the latest checkpoint is already persisted.
		return jobs.Payload{}, context.Cause(ctx)
	}
	if s.warm != nil {
		// Offer this search's final checkpoint to the warm library; it is
		// kept only if it beats the incumbent donor for the structure key.
		cp := lastCP
		if cp == nil {
			cp = job.Checkpoint
		}
		s.warm.Put(warmKey(spec, g), job.ID, resp.Cycles, cp, s.store.Now().UTC())
	}
	return jobs.Marshal(resp)
}

// registerWarm re-indexes a finished search into the warm-start library —
// used at open (rebuilding the index from the durable store) and when a
// fleet worker completes a job remotely. Malformed records are skipped:
// the library is an optimization, never a correctness dependency.
func (s *Server) registerWarm(j *jobs.Job) {
	if j.Kind != searchJobKind || len(j.Checkpoint) == 0 || len(j.Result) == 0 {
		return
	}
	var req SearchRequest
	if err := json.Unmarshal(j.Request, &req); err != nil {
		return
	}
	spec, g, err := req.Resolve()
	if err != nil {
		return
	}
	var res struct {
		Cycles float64 `json:"cycles"`
	}
	if err := json.Unmarshal(j.Result, &res); err != nil {
		return
	}
	s.warm.Put(warmKey(spec, g), j.ID, res.Cycles, j.Checkpoint, j.FinishedAt)
}

// JobJSON is the API view of a job. Result is the full SearchResponse of
// a done job; Progress is a SearchProgress while running. The raw
// checkpoint stays server-side — clients only see that (and when) one
// exists.
type JobJSON struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	State       string     `json:"state"`
	CreatedAt   time.Time  `json:"created_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	Tenant      string     `json:"tenant,omitempty"`
	Class       string     `json:"class,omitempty"`
	MaxAttempts int        `json:"max_attempts,omitempty"`
	// Trail is the failure trail of a job that has failed over: one line
	// per interrupted attempt, plus the quarantine verdict if poisoned.
	Trail []string `json:"trail,omitempty"`
	// Worker names the node whose lease the job is running under; empty
	// unless running. "local" is this process's own worker pool.
	Worker        string          `json:"worker,omitempty"`
	Progress      json.RawMessage `json:"progress,omitempty"`
	HasCheckpoint bool            `json:"has_checkpoint,omitempty"`
	CheckpointAt  *time.Time      `json:"checkpoint_at,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// NewJobJSON converts a stored job to its API view.
func NewJobJSON(j *jobs.Job) *JobJSON {
	v := &JobJSON{
		ID:            j.ID,
		Kind:          j.Kind,
		State:         string(j.State),
		CreatedAt:     j.CreatedAt,
		Attempts:      j.Attempts,
		Tenant:        j.Tenant,
		Class:         j.Class,
		MaxAttempts:   j.MaxAttempts,
		Trail:         j.Trail,
		Progress:      j.Progress,
		HasCheckpoint: len(j.Checkpoint) > 0,
		Result:        j.Result,
		Error:         j.Error,
	}
	if j.Lease != nil {
		v.Worker = j.Lease.Owner
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
	}
	if !j.CheckpointAt.IsZero() {
		t := j.CheckpointAt
		v.CheckpointAt = &t
	}
	return v
}

// handleJobSubmit answers POST /v1/jobs/search: validate eagerly (a bad
// request earns a 400 now, not a failed job later), then enqueue and
// return 202 with the job snapshot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("jobs_submit")
	var req SearchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if _, _, err := req.Resolve(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	class, err := sched.ParseClass(req.Class)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Class = string(class)
	if req.MaxAttempts < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("max_attempts must be >= 0"))
		return
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = s.cfg.DefaultMaxAttempts
	}
	body, err := json.Marshal(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission (the per-tenant active quota) runs inside the store lock,
	// atomically with the create: two racing submissions cannot both
	// squeeze under the limit.
	j, err := s.jobs.SubmitWith(jobs.CreateSpec{
		Kind:        searchJobKind,
		Request:     body,
		Tenant:      req.Tenant,
		Class:       req.Class,
		MaxAttempts: maxAttempts,
	}, s.sched.Admit(req.Tenant))
	if err != nil {
		var qe *sched.QuotaError
		if errors.As(err, &qe) {
			s.writeErrorCode(w, http.StatusTooManyRequests, sched.CodeTenantQuota, err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, NewJobJSON(j))
}

// JobListResponse answers GET /v1/jobs.
type JobListResponse struct {
	Jobs []*JobJSON `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("jobs_list")
	all := s.jobs.List()
	out := &JobListResponse{Jobs: make([]*JobJSON, len(all))}
	for i, j := range all {
		out.Jobs[i] = NewJobJSON(j)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("jobs_get")
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, NewJobJSON(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("jobs_cancel")
	j, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, NewJobJSON(j))
}

// handleJobEvents answers GET /v1/jobs/{id}/events with a Server-Sent
// Events stream of job snapshots: the retained history first (or the part
// after ?after=N / Last-Event-ID), then live updates until the job
// reaches a terminal state or the client goes away. It reads the job's
// event log by cursor (jobs.Manager.Events), so however slowly the client
// reads, the stream carries every retained event through the terminal
// one.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("jobs_events")
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.Atoi(v)
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.Atoi(v)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		evs, next := s.jobs.Events(id, after)
		for _, ev := range evs {
			after = ev.Seq
			b, err := json.Marshal(NewJobJSON(ev.Job))
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: job\ndata: %s\n\n", ev.Seq, b)
		}
		flusher.Flush()
		if next == nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-next:
		}
	}
}
