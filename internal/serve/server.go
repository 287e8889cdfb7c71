package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/notation"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// Config tunes the evaluation service.
type Config struct {
	// CacheEntries is the memoization cache capacity (default 8192).
	CacheEntries int
	// Workers bounds concurrent evaluations (default GOMAXPROCS).
	Workers int
	// Timeout is the per-request deadline (default 60s); a request may
	// lower it with timeout_ms but not raise it.
	Timeout time.Duration
	// MaxBatch caps the requests accepted in one batch call (default 256).
	MaxBatch int
	// DataDir is where the async job store persists its log and snapshot.
	// Empty means memory-only jobs: fully functional, lost on restart.
	DataDir string
	// JobWorkers bounds concurrently running search jobs. Zero scales with
	// runtime.GOMAXPROCS(0); a negative value runs none — a
	// coordinator-only node that stores and leases jobs to fleet workers
	// but never executes one itself.
	JobWorkers int
	// Clock overrides the wall clock for job timestamps (tests only).
	Clock func() time.Time

	// Coordinator, when set, turns this node into a fleet worker: it claims
	// jobs from the coordinator at this base URL (e.g. "http://host:8080"),
	// runs them under heartbeated leases against this node's own fitness
	// cache, as a local job does.
	Coordinator string
	// FleetNode names this node in lease ownership and metrics; defaults to
	// hostname-pid.
	FleetNode string
	// LeaseTTL is the lease duration this node grants when acting as
	// coordinator (default fleet.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// JobRetention evicts terminal jobs older than this horizon from the
	// store (oldest first). Zero keeps everything forever.
	JobRetention time.Duration
	// FleetPoll and FleetHeartbeat tune the worker's claim and lease
	// renewal cadences (defaults 500ms and 3s; tests shrink them). An
	// empty claim parks on the coordinator for up to FleetPoll and is
	// answered as soon as work arrives; a park ends early when this
	// worker closes, the coordinator shuts down, or it reaches the
	// coordinator's lease TTL (see fleet.WorkerConfig.Poll).
	FleetPoll      time.Duration
	FleetHeartbeat time.Duration

	// TenantMaxRunning caps one tenant's concurrently running jobs across
	// the local worker pool and all fleet claims. Zero means unlimited.
	TenantMaxRunning int
	// TenantMaxActive caps one tenant's active (queued + running) jobs at
	// admission; past it, submissions are refused with a coded 429. Zero
	// means unlimited.
	TenantMaxActive int
	// SchedSeed feeds the scheduler's deterministic tie-breaker.
	SchedSeed int64
	// DefaultMaxAttempts is applied to submissions that leave max_attempts
	// unset: after that many failovers a job is quarantined as poisoned.
	// Zero retries forever.
	DefaultMaxAttempts int
}

// Server is the concurrent evaluation service. All mutable state is the
// cache and the counters, both safe for concurrent use; one Server handles
// any number of in-flight HTTP requests.
type Server struct {
	cfg   Config
	cache *memo.FlightCache
	// reqKeys short-circuits repeated literal requests: it maps a
	// normalized request rendering to the canonical design-point key, so a
	// hot request skips catalog resolution and canonical hashing entirely
	// and a cache hit costs two lookups.
	reqKeys *memo.ShardedLRU
	pool    *Pool
	metrics *Metrics
	mux     *http.ServeMux
	started time.Time
	store   *jobs.Store
	jobs    *jobs.Manager
	// sched is the weighted-fair dequeue policy + tenant accounting; warm
	// is the checkpoint library keyed by structure-only canonical prefix.
	sched *sched.Scheduler
	warm  *sched.WarmStore

	// coord serves the fleet peer protocol over this node's store (every
	// node can coordinate); worker is set only when cfg.Coordinator points
	// this node at a peer.
	coord     *fleet.Coordinator
	worker    *fleet.Worker
	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
	closeErr  error

	// afterUpdate, when set, runs on a search job's runner after each
	// generation's progress and checkpoint were handed to the job store.
	// It is nil outside tests, which set it before submitting a job to
	// hold the runner at a generation.
	afterUpdate func(ctx context.Context, generation int)
}

// New builds a Server with the config's defaults applied. It panics when
// the job store cannot be opened; use Open to handle that error (a config
// without DataDir cannot fail).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, opening (and recovering) the durable job store
// under cfg.DataDir. Jobs interrupted by a previous crash or drain are
// queued again and resume from their checkpoints as soon as the job
// workers start.
func Open(cfg Config) (*Server, error) {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 8192
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.JobWorkers == 0 {
		// One searching job saturates roughly one core (its fitness
		// evaluations fan out over the shared pool), so the default tracks
		// the core count rather than a flat constant.
		cfg.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.FleetNode == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		cfg.FleetNode = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	s := &Server{
		cfg:     cfg,
		cache:   memo.NewFlightCache(nil, cfg.CacheEntries),
		reqKeys: memo.NewShardedLRU(cfg.CacheEntries),
		pool:    NewPool(cfg.Workers),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	store, err := jobs.Open(cfg.DataDir, cfg.Clock)
	if err != nil {
		return nil, err
	}
	s.store = store
	// One scheduler instance governs every dequeue path: installed as the
	// store's Picker, it decides both local worker claims and fleet
	// /v1/fleet/claim grants, so priority weights and tenant quotas hold
	// across the whole fleet.
	s.sched = sched.New(sched.Config{
		TenantMaxRunning: cfg.TenantMaxRunning,
		TenantMaxActive:  cfg.TenantMaxActive,
		Seed:             cfg.SchedSeed,
	})
	store.SetPicker(s.sched.Pick)
	// The warm-start library is an in-memory index over the durable store:
	// recovered Done jobs with checkpoints re-register here, so warm
	// starting survives restarts without any persistence of its own.
	s.warm = sched.NewWarmStore()
	for _, j := range store.List() {
		if j.State == jobs.Done {
			s.registerWarm(j)
		}
	}
	s.jobs, err = jobs.NewManager(store, jobs.Config{Workers: cfg.JobWorkers, Runner: s.runSearchJob})
	if err != nil {
		store.Close()
		return nil, err
	}
	// Every node can coordinate: the peer protocol leases out this node's
	// own store. The store publishes every commit the protocol makes to
	// the manager's event streams, so SSE watchers here follow searches
	// executing on other nodes. A search a fleet worker finished remotely
	// is indexed here for warm starting.
	s.coord = &fleet.Coordinator{Store: store, TTL: cfg.LeaseTTL, OnDone: s.registerWarm}
	if cfg.Coordinator != "" {
		slots := cfg.JobWorkers
		if slots < 1 {
			slots = 1
		}
		s.worker, err = fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: cfg.Coordinator,
			Node:        cfg.FleetNode,
			Slots:       slots,
			Poll:        cfg.FleetPoll,
			Heartbeat:   cfg.FleetHeartbeat,
			Clock:       cfg.Clock,
			Runner:      s.runSearchJob,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		s.worker.Start()
	}
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go s.sweepLoop()
	s.mux.Handle("/v1/fleet/", s.coord.Handler())
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/evaluate/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/vet", s.handleReport("vet", func(req *EvaluateRequest) (analyzerReport, error) { return Vet(req) }))
	s.mux.HandleFunc("POST /v1/analyze", s.handleReport("analyze", func(req *EvaluateRequest) (analyzerReport, error) { return AnalyzeSpace(req) }))
	s.mux.HandleFunc("POST /v1/jobs/search", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler is the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// FleetHandler serves only the fleet peer protocol, for a dedicated
// -fleet-listen port that keeps peer traffic off the public listener.
func (s *Server) FleetHandler() http.Handler { return s.coord.Handler() }

// StopParking answers every fleet claim parked on this node at once and
// stops later ones from parking. Register it with RegisterOnShutdown on
// each http.Server serving Handler or FleetHandler, so a graceful
// Shutdown does not wait out a worker's park; Close calls it too.
func (s *Server) StopParking() { s.coord.StopParking() }

// sweepEvery is the cadence of the background lease + retention sweep.
// Claims sweep expired leases too, so a busy fleet fails over sooner.
const sweepEvery = time.Second

// sweepLoop periodically fails over expired leases and evicts terminal
// jobs past the retention horizon. Tests drive the same steps directly via
// SweepFleet/SweepRetention with an injected clock.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	tk := time.NewTicker(sweepEvery)
	defer tk.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-tk.C:
			s.SweepFleet()
			s.SweepRetention()
		}
	}
}

// SweepFleet re-queues jobs whose fleet leases expired (finalizing
// expired cancel-requested ones and quarantining jobs past their attempt
// budget), returning all three counts.
func (s *Server) SweepFleet() (requeued, cancelled, poisoned int) { return s.coord.Sweep() }

// SweepRetention evicts terminal jobs older than the configured retention
// horizon, returning how many were removed. A zero horizon keeps all.
func (s *Server) SweepRetention() int { return len(s.store.SweepRetention(s.cfg.JobRetention)) }

// Close shuts the node down: parked fleet claims are answered empty, the
// sweeper stops, a fleet worker drains (its jobs are released back to the
// coordinator with checkpoints), local jobs are cancelled with the
// draining cause and re-queued on disk, and the store closes. Later calls
// return the first call's result.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() { s.closeErr = s.close(ctx) })
	return s.closeErr
}

func (s *Server) close(ctx context.Context) error {
	s.coord.StopParking()
	close(s.sweepStop)
	<-s.sweepDone
	var err error
	if s.worker != nil {
		err = s.worker.Close(ctx)
	}
	if derr := s.jobs.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// CacheStats snapshots the memoization counters.
func (s *Server) CacheStats() memo.Stats { return s.cache.Stats() }

// httpError carries a status code chosen by the evaluation pipeline.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }

func unprocessable(err error) error {
	return &httpError{status: http.StatusUnprocessableEntity, err: err}
}

// statusClientClosedRequest is nginx's non-standard code for a client that
// went away before the response. context.Canceled means exactly that here
// — it is neither a timeout (504) nor a server fault (500).
const statusClientClosedRequest = 499

// statusFor maps pipeline errors to HTTP statuses: caller mistakes
// (including structurally invalid mappings) are 400, infeasible design
// points (over capacity, over the PE budget, nothing valid in the search
// budget) are 422, expired deadlines are 504, canceled clients are 499,
// and anything unrecognized is a 500 server fault.
func statusFor(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, core.ErrInvalidMapping):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// evalOutcome is the cache value for one evaluate key: everything needed
// to rebuild a response except the per-request cached flag.
type evalOutcome struct {
	workload     string
	dfName       string
	archName     string
	tunedFactors map[string]int
	result       *ResultJSON

	// encodeOnce fills cachedBytes, the pre-serialized cached:true
	// response body, so the hot hit path writes stored bytes instead of
	// re-marshaling the result.
	encodeOnce  sync.Once
	cachedBytes []byte
}

func (o *evalOutcome) response(cached bool) *EvaluateResponse {
	return &EvaluateResponse{
		Workload:     o.workload,
		Dataflow:     o.dfName,
		Arch:         o.archName,
		Cached:       cached,
		TunedFactors: o.tunedFactors,
		Result:       o.result,
	}
}

// cachedJSON is the serialized cached:true response, built once per
// outcome. Nil on a marshal failure (the caller falls back to writeJSON).
func (o *evalOutcome) cachedJSON() []byte {
	o.encodeOnce.Do(func() {
		if b, err := json.Marshal(o.response(true)); err == nil {
			o.cachedBytes = append(b, '\n')
		}
	})
	return o.cachedBytes
}

// requestKey renders a request into a normalized literal key for the
// request-level fast path: Go's encoding/json emits struct fields in
// declaration order and map keys sorted, so equal decoded requests render
// identically. Per-call knobs that do not change the design point are
// dropped.
func requestKey(req *EvaluateRequest) (string, bool) {
	norm := *req
	norm.TimeoutMS = 0
	norm.NoCache = false
	b, err := json.Marshal(&norm)
	if err != nil {
		return "", false
	}
	return "req:" + string(b), true
}

// run executes the analysis for a resolved design point: tuning first when
// the request asked for it, then the tree-based evaluation.
func (dp *designPoint) run(ctx context.Context) (*evalOutcome, error) {
	out := &evalOutcome{workload: dp.g.Name, dfName: dp.dfName, archName: dp.spec.Name}
	root := dp.root
	if root == nil {
		ev := mapper.TuneContext(ctx, dp.df, dp.spec, dp.opts, dp.tune, dp.seed)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ev == nil {
			return nil, unprocessable(fmt.Errorf("no valid mapping found for %s", dp.dfName))
		}
		out.tunedFactors = ev.Factors
		var err error
		if root, err = dp.df.Build(ev.Factors); err != nil {
			return nil, err
		}
	}
	res, err := core.EvaluateContext(ctx, root, dp.g, dp.spec, dp.opts)
	if err != nil {
		return nil, err
	}
	out.result = NewResultJSON(res, dp.spec)
	return out, nil
}

// key is the canonical cache key of the design point.
func (dp *designPoint) key() string {
	if dp.root == nil {
		return tunedKey(dp.canon, dp.dfName, dp.tune, dp.seed, dp.opts)
	}
	return evaluateKey(dp.canon, dp.root, dp.opts)
}

// requestTimeout clamps a request's timeout_ms to the server deadline.
func (s *Server) requestTimeout(ms int) time.Duration {
	t := s.cfg.Timeout
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < t {
			t = d
		}
	}
	return t
}

// evaluateOne is the shared pipeline behind /v1/evaluate and the batch
// endpoint: resolve, key, then single-flight through the cache and the
// worker pool. On a hit it also returns the pre-serialized response body,
// so repeat traffic skips resolution, hashing, and JSON encoding.
func (s *Server) evaluateOne(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, []byte, error) {
	start := time.Now()
	defer func() { s.metrics.ObserveLatency(time.Since(start)) }()

	// Fast path: a request literal seen before maps straight to its
	// canonical key, making a repeat hit two cache lookups.
	rk, rok := requestKey(req)
	var key string
	if rok && !req.NoCache {
		if ck, ok := s.reqKeys.Get(rk); ok {
			key = ck.(string)
			if v, ok := s.cache.Get(key); ok {
				out := v.(*evalOutcome)
				return out.response(true), out.cachedJSON(), nil
			}
		}
	}

	var dp *designPoint
	if key == "" {
		var err error
		if dp, err = resolve(req); err != nil {
			return nil, nil, badRequest(err)
		}
		key = dp.key()
	}
	ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(req.TimeoutMS))
	defer cancel()

	compute := func() (any, error) {
		if dp == nil {
			// reqKeys still knew the canonical key but the outcome was
			// evicted; resolve lazily, only now that we must recompute.
			var err error
			if dp, err = resolve(req); err != nil {
				return nil, badRequest(err)
			}
		}
		var out *evalOutcome
		perr := s.pool.Do(ctx, func() error {
			var rerr error
			out, rerr = dp.run(ctx)
			return rerr
		})
		if perr != nil {
			return nil, perr
		}
		return out, nil
	}

	if req.NoCache {
		v, err := compute()
		if err != nil {
			return nil, nil, err
		}
		out := v.(*evalOutcome)
		s.cache.Put(key, out)
		if rok {
			s.reqKeys.Put(rk, key)
		}
		return out.response(false), nil, nil
	}
	v, cached, err := s.cache.Do(ctx, key, compute)
	if err != nil {
		return nil, nil, err
	}
	if rok {
		s.reqKeys.Put(rk, key)
	}
	out := v.(*evalOutcome)
	if cached {
		return out.response(true), out.cachedJSON(), nil
	}
	return out.response(false), nil, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("evaluate")
	var req EvaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, raw, err := s.evaluateOne(r.Context(), &req)
	if err != nil {
		s.writeErrorDiags(w, statusFor(err), err, rejectionDiagnostics(&req, err, statusFor(err)))
		return
	}
	if raw != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// BatchRequest evaluates many design points in one call; items are
// processed concurrently under the same worker pool and cache.
type BatchRequest struct {
	Requests []EvaluateRequest `json:"requests"`
}

// BatchItem is the per-request outcome of a batch: exactly one of Response
// and Error is set, at the same index as the request.
type BatchItem struct {
	Response *EvaluateResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// BatchResponse answers /v1/evaluate/batch.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// batchGroupKey identifies one Program.EvaluateBatch call: design points
// sharing a compiled structure and evaluation options run as a single
// batch. core.Options is a flat struct of bools, so the composite key is
// comparable.
type batchGroupKey struct {
	pk   string
	opts core.Options
}

// batchPoint is one batch item headed for the grouped fast path.
type batchPoint struct {
	idx int
	dp  *designPoint
	key string // canonical outcome cache key
	rk  string // request-literal fast-path key ("" when unusable)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("evaluate_batch")
	var breq BatchRequest
	if !s.decode(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(breq.Requests), s.cfg.MaxBatch))
		return
	}
	items := make([]BatchItem, len(breq.Requests))

	// Resolve phase: answer cache hits inline, route explicit-tree items
	// into per-structure groups for Program.EvaluateBatch, and leave the
	// rest (tuned templates, per-item timeouts) to the general pipeline.
	groups := map[batchGroupKey][]*batchPoint{}
	var loose []int
	for i := range breq.Requests {
		req := &breq.Requests[i]
		if req.TimeoutMS != 0 {
			// A per-item deadline cannot ride a shared batch evaluation.
			loose = append(loose, i)
			continue
		}
		rk, rok := requestKey(req)
		if rok && !req.NoCache {
			if ck, ok := s.reqKeys.Get(rk); ok {
				if v, ok := s.cache.Get(ck.(string)); ok {
					items[i].Response = v.(*evalOutcome).response(true)
					continue
				}
			}
		}
		dp, err := resolve(req)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		key := dp.key()
		if !req.NoCache {
			if v, ok := s.cache.Get(key); ok {
				if rok {
					s.reqKeys.Put(rk, key)
				}
				items[i].Response = v.(*evalOutcome).response(true)
				continue
			}
		}
		if dp.root == nil {
			loose = append(loose, i)
			continue
		}
		if !rok {
			rk = ""
		}
		gk := batchGroupKey{pk: programKey(dp.canon, dp.root), opts: dp.opts}
		groups[gk] = append(groups[gk], &batchPoint{idx: i, dp: dp, key: key, rk: rk})
	}

	done := make(chan struct{})
	launched := 0
	for gk, pts := range groups {
		launched++
		go func(gk batchGroupKey, pts []*batchPoint) {
			defer func() { done <- struct{}{} }()
			// net/http's panic recovery only covers the handler goroutine;
			// without this a panic in one group would kill the daemon.
			defer func() {
				if p := recover(); p != nil {
					for _, pt := range pts {
						if items[pt.idx].Response == nil && items[pt.idx].Error == "" {
							items[pt.idx].Error = fmt.Sprintf("internal error: %v", p)
						}
					}
				}
			}()
			s.evaluateGroup(r.Context(), gk, pts, items)
		}(gk, pts)
	}
	for _, i := range loose {
		launched++
		go func(i int) {
			defer func() { done <- struct{}{} }()
			defer func() {
				if p := recover(); p != nil {
					items[i].Error = fmt.Sprintf("internal error: %v", p)
				}
			}()
			resp, _, err := s.evaluateOne(r.Context(), &breq.Requests[i])
			if err != nil {
				items[i].Error = err.Error()
				return
			}
			items[i].Response = resp
		}(i)
	}
	for n := 0; n < launched; n++ {
		<-done
	}
	s.writeJSON(w, http.StatusOK, &BatchResponse{Items: items})
}

// evaluateGroup runs one structure-sharing group of batch items through
// Program.EvaluateBatch under a single worker-pool slot: the group compiles
// once, from its first tiling, and every tiling is re-bound into that
// Program instead of compiling per item. Each item's result is
// bit-identical to the single-request route (pinned by the conformance
// differentials), so outcomes enter the same response cache.
func (s *Server) evaluateGroup(ctx context.Context, gk batchGroupKey, pts []*batchPoint, items []BatchItem) {
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		for range pts {
			s.metrics.ObserveLatency(elapsed)
		}
	}()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()

	dp0 := pts[0].dp
	roots := make([]*core.Node, len(pts))
	for j, pt := range pts {
		roots[j] = pt.dp.root
	}
	var results []*core.Result
	var errs []error
	perr := s.pool.Do(ctx, func() error {
		// Every Compile rule reads only what the group's programKey fixes
		// (arch, graph, structure), so either every tiling compiles or none
		// does. An item whose tiling is invalid gets its error from the
		// batch re-bind below, identical to what its own compile would say;
		// if the first tiling does not compile, each item's own compile
		// supplies its own message.
		p, err := core.Compile(roots[0], dp0.g, dp0.spec)
		if err != nil {
			for j, pt := range pts {
				if j > 0 {
					_, err = core.Compile(roots[j], dp0.g, dp0.spec)
				}
				items[pt.idx].Error = err.Error()
			}
			return nil
		}
		results, errs = p.EvaluateBatch(ctx, roots, gk.opts)
		return nil
	})
	if perr != nil {
		for _, pt := range pts {
			if items[pt.idx].Error == "" {
				items[pt.idx].Error = perr.Error()
			}
		}
		return
	}
	if results == nil {
		return // every tiling failed to compile; errors already set
	}
	for j, pt := range pts {
		if errs[j] != nil {
			items[pt.idx].Error = errs[j].Error()
			continue
		}
		out := &evalOutcome{
			workload: pt.dp.g.Name,
			dfName:   pt.dp.dfName,
			archName: pt.dp.spec.Name,
			result:   NewResultJSON(results[j], pt.dp.spec),
		}
		s.cache.Put(pt.key, out)
		if pt.rk != "" {
			s.reqKeys.Put(pt.rk, pt.key)
		}
		items[pt.idx].Response = out.response(false)
	}
}

// SearchRequest runs the Sec 6 GA+MCTS mapper over the full 3D fusion
// design space for a workload.
type SearchRequest struct {
	Arch     string `json:"arch,omitempty"`
	ArchSpec string `json:"arch_spec,omitempty"`
	Workload string `json:"workload"`

	Population  int   `json:"population,omitempty"`
	Generations int   `json:"generations,omitempty"`
	TileRounds  int   `json:"tile_rounds,omitempty"`
	TopK        int   `json:"top_k,omitempty"`
	Seed        int64 `json:"seed,omitempty"`

	SkipCapacityCheck bool `json:"skip_capacity_check,omitempty"`
	SkipPECheck       bool `json:"skip_pe_check,omitempty"`
	DisableRetention  bool `json:"disable_retention,omitempty"`

	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`

	// Async-job scheduling attributes (ignored by the synchronous
	// /v1/search endpoint): who is submitting, at which priority class,
	// how many failovers before quarantine, and whether to seed the GA
	// population from the best checkpoint of a structurally identical
	// finished search.
	Tenant      string `json:"tenant,omitempty"`
	Class       string `json:"class,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
	WarmStart   bool   `json:"warm_start,omitempty"`
}

// SearchResponse reports the best mapping the search found. TimedOut marks
// a best-so-far answer cut short by the deadline; such responses are not
// cached.
type SearchResponse struct {
	Workload string         `json:"workload"`
	Arch     string         `json:"arch"`
	Cached   bool           `json:"cached,omitempty"`
	TimedOut bool           `json:"timed_out,omitempty"`
	Cycles   float64        `json:"cycles"`
	Encoding string         `json:"encoding"`
	Factors  map[string]int `json:"factors"`
	Notation string         `json:"notation"`
	Trace    []float64      `json:"trace"`
	Result   *ResultJSON    `json:"result"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("search")
	var req SearchRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, err := s.searchOne(r.Context(), &req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) searchOne(ctx context.Context, req *SearchRequest) (*SearchResponse, error) {
	spec, g, err := req.resolve()
	if err != nil {
		return nil, badRequest(err)
	}
	key := searchKey(spec, g, req)
	if !req.NoCache {
		if v, ok := s.cache.Get(key); ok {
			resp := *v.(*SearchResponse)
			resp.Cached = true
			return &resp, nil
		}
	}
	ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(req.TimeoutMS))
	defer cancel()

	var resp *SearchResponse
	err = s.pool.Do(ctx, func() (err error) {
		resp, err = s.runTreeSearch(ctx, req, spec, g, key, nil)
		return err
	})
	return resp, err
}

// runTreeSearch is the one search execution path behind /v1/search and
// the job runner, local or fleet. It builds the mapper.TreeSearch over the
// node's service cache, lets setup install a job's checkpoint resume, warm
// start and progress hook (the synchronous path passes nil), runs it, and
// renders the winner. A finished answer is stored under key, the request's
// searchKey, so a later synchronous request for the same point is a hit; a
// best-so-far answer cut short by ctx is marked TimedOut and not stored.
func (s *Server) runTreeSearch(ctx context.Context, req *SearchRequest, spec *arch.Spec, g *workload.Graph, key string, setup func(*mapper.TreeSearch)) (*SearchResponse, error) {
	ts := &mapper.TreeSearch{
		G: g, Spec: spec, Opts: req.options(),
		Population: req.Population, Generations: req.Generations,
		TileRounds: req.TileRounds, TopK: req.TopK,
		Parallel: s.pool.Workers(), Seed: req.Seed,
		Cache: s.cache,
	}
	if setup != nil {
		setup(ts)
	}
	res := ts.RunContext(ctx)
	if res.Best == nil {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		return nil, unprocessable(fmt.Errorf("no valid dataflow found for %s on %s", g.Name, spec.Name))
	}
	resp, err := NewSearchResponse(g, spec, res, ctx.Err() != nil)
	if err != nil {
		return nil, err
	}
	if !resp.TimedOut {
		s.cache.Put(key, resp)
	}
	return resp, nil
}

// NewSearchResponse renders a finished search into the shared response
// shape: it rebuilds the winning tree for the notation dump and result
// block, so the synchronous endpoint, the async jobs, and the CLI all
// report a search identically.
func NewSearchResponse(g *workload.Graph, spec *arch.Spec, res *mapper.TreeSearchResult, timedOut bool) (*SearchResponse, error) {
	gd := mapper.NewGeneratedDataflow("best", g, spec, res.Encoding)
	root, err := gd.Build(res.Best.Factors)
	if err != nil {
		return nil, err
	}
	return &SearchResponse{
		Workload: g.Name,
		Arch:     spec.Name,
		TimedOut: timedOut,
		Cycles:   res.Best.Cycles,
		Encoding: res.Encoding.String(),
		Factors:  res.Best.Factors,
		Notation: notation.Print(root),
		Trace:    res.Trace,
		Result:   NewResultJSON(res.Best.Result, spec),
	}, nil
}

// Healthz answers liveness probes.
type Healthz struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	InFlight      int64   `json:"in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, &Healthz{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		CacheEntries:  s.cache.Len(),
		InFlight:      s.pool.InFlight(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s)
}

// decode reads a size-limited JSON body, answering 400 itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON error envelope. Structurally invalid (400) and
// infeasible (422) mappings additionally carry the static analyzer's
// diagnostics, so API clients get the same coded, positioned findings as
// `tileflow vet`.
type errorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable cause (e.g. sched.CodeTenantQuota
	// on a 429); clients branch on it instead of parsing Error.
	Code        string    `json:"code,omitempty"`
	Diagnostics diag.List `json:"diagnostics,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeErrorDiags(w, status, err, nil)
}

// writeErrorCode writes a coded error envelope. The CLI's server-submit
// mode relays these bodies byte-for-byte, so a quota refusal renders
// identically whether it reached the client over HTTP or through
// `tileflow-search -json`.
func (s *Server) writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	s.metrics.IncError()
	s.writeJSON(w, status, &errorBody{Error: err.Error(), Code: code})
}

func (s *Server) writeErrorDiags(w http.ResponseWriter, status int, err error, diags diag.List) {
	s.metrics.IncError()
	s.writeJSON(w, status, &errorBody{Error: err.Error(), Diagnostics: diags})
}

// Vet statically analyzes the design point a request names, without
// evaluating (or even compiling) it. It resolves the request exactly as
// evaluate does, but a mapping that fails analysis is a successful vet:
// the diagnostics are the answer, not an error. The CLI's `tileflow vet
// -json` calls this same function, so the two JSON outputs are
// byte-identical.
func Vet(req *EvaluateRequest) (check.VetReport, error) {
	fail := func(err error) (check.VetReport, error) { return check.VetReport{}, badRequest(err) }
	form, err := SelectInput(req)
	if err != nil {
		return fail(err)
	}
	if form == inputConfig {
		// A config that fails to load is a successful vet: the positioned
		// TF-YAML diagnostics are the answer. A config that loads merges
		// any loader warnings with the analyzer's findings.
		cfg, diags := yamlfe.Load(req.ConfigYAML)
		if cfg != nil {
			diags = append(diags, check.Analyze(cfg.Root, nil, cfg.Graph, cfg.Spec, req.options())...)
			diags.Sort()
		}
		return check.NewReport(diags), nil
	}
	spec, err := pickSpec(req.Arch, req.ArchSpec)
	if err != nil {
		return fail(err)
	}
	if req.Tune > 0 {
		return fail(fmt.Errorf("vet analyzes one concrete mapping; drop tune"))
	}
	g, df, err := req.graph(form, spec)
	if err != nil {
		return fail(err)
	}
	if df == nil {
		return check.NewReport(check.AnalyzeSource(req.Notation, g, spec, req.options())), nil
	}
	root, err := req.build(df)
	if err != nil {
		return fail(err)
	}
	return check.NewReport(check.Analyze(root, nil, g, spec, req.options())), nil
}

// rejectionDiagnostics recomputes the static diagnostics behind a 400/422
// rejection so the error body can carry them. Requests without one concrete
// mapping (tuned templates, malformed requests) yield nil — the error
// string stands alone.
func rejectionDiagnostics(req *EvaluateRequest, err error, status int) diag.List {
	if diags := requestDiagnostics(err); diags != nil {
		return diags
	}
	if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
		return nil
	}
	if req.Tune > 0 {
		return nil
	}
	rep, err := Vet(req)
	if err != nil {
		return nil
	}
	return rep.Diagnostics
}

// analyzerReport is an analyzer endpoint's answer, a vet report or a
// search-space report, each with its own JSON codec.
type analyzerReport interface{ WriteJSON(io.Writer) error }

// handleReport serves an analyzer endpoint: it runs the function the CLI
// subcommand calls (Vet or AnalyzeSpace) and encodes the report with the
// shared codec, so the body is byte-identical to `tileflow vet -json` or
// `tileflow analyze -json` for the same design point.
func (s *Server) handleReport(name string, analyze func(*EvaluateRequest) (analyzerReport, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.IncRequest(name)
		var req EvaluateRequest
		if !s.decode(w, r, &req) {
			return
		}
		report, err := analyze(&req)
		if err != nil {
			s.writeErrorDiags(w, statusFor(err), err, requestDiagnostics(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		report.WriteJSON(w)
	}
}
