package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/workload"
)

// exploreWave is how many jobs a client submits before following them:
// one of each priority class. With nproc clients and the server's default
// nproc job workers, nproc×exploreWave searches are outstanding, so jobs
// queue and the scheduler's class weights decide who waits.
const exploreWave = len(waveClasses)

// searchBudget is the GA+MCTS size of every explore job. The mapper's
// defaults (20 individuals × 50 generations × 40 MCTS rounds) take
// seconds per job; this budget is an assumption, small enough that one job
// takes tens of milliseconds on 2 vCPUs and a window holds over a thousand
// jobs, so p90 turnaround has over a hundred samples beyond it and one
// slow slice moves little.
func searchBudget(o options) (pop, gens, rounds int) {
	if o.smoke {
		return 4, 2, 4
	}
	return 8, 4, 12
}

// qualityPasses is how many passes over the combos best_cycles_geomean
// covers.
func qualityPasses(o options) int {
	if o.smoke {
		return 1
	}
	return 4
}

// combo is one (architecture, workload) point of the explore sweep.
type combo struct{ arch, workload string }

func exploreCombos() []combo {
	var out []combo
	for _, a := range archNames {
		for _, s := range workload.AttentionShapes {
			out = append(out, combo{a, "attention:" + s.Name})
		}
		for _, s := range workload.ConvChainShapes {
			out = append(out, combo{a, "conv:" + s.Name})
		}
	}
	return out
}

// waveClasses are the priority classes of one wave, taken in a seeded
// order: one job of each, so no class is assumed to dominate, and every
// slice of the window sees the same mix.
var waveClasses = [...]string{"interactive", "batch", "bulk"}

// sweep is the seeded, unbounded sequence of explore jobs. Pass p visits
// every valid combo once in a seeded order; each wave of exploreWave jobs
// takes the waveClasses in a seeded order; each job draws its tenant and
// search seed from the benchmark seed and its position. Tenants only label
// jobs: the benchmark sets no tenant quotas, without which the scheduler
// does not look at them, and three names exercise the per-tenant
// accounting with more than one tenant.
type sweep struct {
	o      options
	combos []combo
	mu     sync.Mutex
	perms  map[int][]int
}

func (s *sweep) item(i int) serve.SearchRequest {
	n := len(s.combos)
	pass, j := i/n, i%n
	s.mu.Lock()
	perm, ok := s.perms[pass]
	if !ok {
		perm = rand.New(rand.NewSource(mix64(s.o.seed, 1, int64(pass)))).Perm(n)
		s.perms[pass] = perm
	}
	s.mu.Unlock()
	c := s.combos[perm[j]]
	rng := rand.New(rand.NewSource(mix64(s.o.seed, 2, int64(i))))
	classes := rand.New(rand.NewSource(mix64(s.o.seed, 4, int64(i/exploreWave)))).Perm(exploreWave)
	pop, gens, rounds := searchBudget(s.o)
	return serve.SearchRequest{
		Arch: c.arch, Workload: c.workload,
		Population: pop, Generations: gens, TileRounds: rounds, TopK: 2,
		Seed:   mix64(s.o.seed, 3, int64(i)),
		Tenant: fmt.Sprintf("tenant-%d", rng.Intn(3)),
		Class:  waveClasses[classes[i%exploreWave]],
	}
}

// exploreEnv is one set-up of the explore workloads: a node with a
// durable job store behind a loopback listener and, for explore-fleet, a
// coordinator-only node plus one in-process worker node.
type exploreEnv struct {
	coord  *serve.Server
	worker *serve.Server
	lb     *loopback
	base   string
	dir    string
	client *http.Client
	seam   *handlerSeam
	combos []combo
}

func openExplore(o options, fleet bool, traced bool) (*exploreEnv, error) {
	dir, err := os.MkdirTemp(o.tmp, "jobs-*")
	if err != nil {
		return nil, err
	}
	env := &exploreEnv{dir: dir, client: newClient()}
	cfg := serve.Config{DataDir: dir, SchedSeed: o.seed}
	if fleet {
		cfg.JobWorkers = -1
	}
	if env.coord, err = serve.Open(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = env.coord.Handler()
	if traced {
		env.seam = newHandlerSeam(h, "submit")
		h = env.seam
	}
	if env.lb, err = listen(h); err != nil {
		env.close()
		return nil, err
	}
	env.base = env.lb.base
	if fleet {
		env.worker, err = serve.Open(serve.Config{
			Coordinator: env.base,
			FleetNode:   "worker-1",
			FleetPoll:   10 * time.Millisecond,
		})
		if err != nil {
			env.close()
			return nil, err
		}
	}
	// Keep only the combos a small synchronous search answers with 200,
	// so a failed job during the run is a real failure.
	for _, c := range exploreCombos() {
		req := serve.SearchRequest{Arch: c.arch, Workload: c.workload, Population: 2, Generations: 1, TileRounds: 2, Seed: 1}
		if status, _, err := postJSON(env.client, env.base+"/v1/search", "", &req); err == nil && status == http.StatusOK {
			env.combos = append(env.combos, c)
		}
	}
	if len(env.combos) == 0 {
		env.close()
		return nil, fmt.Errorf("no explore combo answers a search with 200")
	}
	if o.smoke {
		env.combos = env.combos[:4]
	}
	return env, nil
}

// close stops the nodes: the worker first (it hands its leases back to
// the coordinator over HTTP), then the listener, then the coordinator.
func (env *exploreEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if env.worker != nil {
		env.worker.Close(ctx)
	}
	if env.lb != nil {
		env.lb.close()
	}
	if env.coord != nil {
		env.coord.Close(ctx)
	}
	env.client.CloseIdleConnections()
	os.RemoveAll(env.dir)
}

// jobRecord is one submitted job as the client saw it.
type jobRecord struct {
	idx         int
	req         serve.SearchRequest
	submitStart time.Time
	submitRTT   time.Duration
	id          string
	final       *serve.JobJSON
	events      int
	checkpoints []time.Time
	// winner is the done job's result, decoded when it arrives so the
	// bulky result body is not kept.
	winner *serve.SearchResponse
	err    error
}

// runExplore is the explore workload (and, with fleet, explore-fleet):
// nproc clients each submit a wave of jobs with POST /v1/jobs/search, then
// follow each to its terminal state over SSE, in a closed loop. The first
// qualityPasses passes over the combos always complete;
// best_cycles_geomean is the geometric mean of their winners. An op is a finished job; p50_ms and
// tail_ms (p90) are the turnaround from submit to the job's finish.
func runExplore(o options, tr *tracer, fleet bool) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	heap := startHeapSampler()
	env, setupS, err := repeatSetup(func() (*exploreEnv, error) { return openExplore(o, fleet, tr != nil) },
		func(e *exploreEnv) { e.close() })
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer env.close()
	r.metrics["setup_s"] = setupS
	sw := &sweep{o: o, combos: env.combos, perms: map[int][]int{}}
	// best_cycles_geomean covers the first qualityPasses passes, which
	// always complete: enough jobs that the draw of search seeds barely
	// moves it from one workload seed to the next.
	quality := len(env.combos) * qualityPasses(o)

	// The store keeps every finished job, so the live heap grows with the
	// jobs done: heap_peak_mb stops at a fixed job count, the quality
	// passes, with a collection there so the figure is what is live then,
	// and a faster server does not read as a bigger one.
	var heapMB float64
	var heapOnce sync.Once
	stopHeap := func() {
		heapOnce.Do(func() {
			runtime.GC()
			heapMB = heap.Stop()
		})
	}

	clients := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var mu sync.Mutex
	var recs []*jobRecord
	compiles0 := core.CompileCount()
	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				first := int(next.Add(int64(exploreWave))) - exploreWave
				if first >= quality && !time.Now().Before(deadline) {
					return
				}
				wave := make([]*jobRecord, exploreWave)
				for k := range wave {
					wave[k] = &jobRecord{idx: first + k, req: sw.item(first + k)}
					env.submit(wave[k])
				}
				for _, rec := range wave {
					if rec.err == nil {
						env.follow(rec)
					}
				}
				mu.Lock()
				recs = append(recs, wave...)
				reached := len(recs) >= quality
				mu.Unlock()
				if reached {
					stopHeap()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	compiles := core.CompileCount() - compiles0
	storeBytes := dirSize(env.dir)
	stopHeap()
	r.metrics["heap_peak_mb"] = heapMB

	var ops []opSample
	var winners []float64
	for _, rec := range recs {
		switch {
		case rec.err != nil:
			r.fail("job %d: %v", rec.idx, rec.err)
			continue
		case rec.final.State != "done":
			r.fail("job %d ended %s: %s", rec.idx, rec.final.State, rec.final.Error)
			continue
		}
		ops = append(ops, opSample{end: rec.final.FinishedAt.Sub(start), lat: ms(rec.final.FinishedAt.Sub(rec.submitStart)), work: 1})
	}
	r.attempted = len(recs)
	if len(ops) == 0 {
		return nil, errNoOps
	}
	windowMetrics(r, "jobs done; turnaround", 90, o.seconds, ops, nil)
	r.notef("%d jobs done in %.2fs by %d clients", len(ops), elapsed.Seconds(), clients)

	// Correctness: each winner's notation, parsed and evaluated cold, must
	// reproduce the job's reported cycles bit for bit.
	for _, rec := range recs {
		if rec.err != nil || rec.final.State != "done" {
			continue
		}
		cycles, err := checkWinner(rec)
		if err != nil {
			r.fail("job %d: %v", rec.idx, err)
			continue
		}
		if rec.idx < quality {
			winners = append(winners, cycles)
		}
	}
	if len(winners) < quality {
		r.notef("WARNING: only %d of the first %d jobs succeeded", len(winners), quality)
	}
	r.metrics["best_cycles_geomean"] = geomean(winners)
	if tr != nil {
		traceExplore(tr, env, recs, fleet, compiles, storeBytes)
	}
	return r, nil
}

// submit posts one job and records its ID, or the error.
func (env *exploreEnv) submit(rec *jobRecord) {
	rec.submitStart = time.Now()
	status, body, err := postJSON(env.client, env.base+"/v1/jobs/search", env.seam.tag("submit"), &rec.req)
	rec.submitRTT = time.Since(rec.submitStart)
	switch {
	case err != nil:
		rec.err = err
	case status != http.StatusAccepted:
		rec.err = fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(body))
	default:
		var j serve.JobJSON
		if rec.err = json.Unmarshal(body, &j); rec.err == nil {
			rec.id = j.ID
		}
	}
}

// follow reads the job's SSE stream until a terminal snapshot arrives.
func (env *exploreEnv) follow(rec *jobRecord) {
	resp, err := env.client.Get(env.base + "/v1/jobs/" + rec.id + "/events")
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("events: status %d", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var lastCP time.Time
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var j serve.JobJSON
		if err := json.Unmarshal([]byte(data), &j); err != nil {
			rec.err = fmt.Errorf("events: %v", err)
			return
		}
		rec.events++
		if j.CheckpointAt != nil && j.CheckpointAt.After(lastCP) {
			lastCP = *j.CheckpointAt
			rec.checkpoints = append(rec.checkpoints, lastCP)
		}
		switch j.State {
		case "done", "failed", "cancelled", "poisoned":
			if j.State == "done" {
				var w serve.SearchResponse
				if err := json.Unmarshal(j.Result, &w); err != nil {
					rec.err = fmt.Errorf("decoding the result: %v", err)
					return
				}
				rec.winner = &serve.SearchResponse{Cycles: w.Cycles, Encoding: w.Encoding, Factors: w.Factors}
			}
			j.Result, j.Progress = nil, nil
			rec.final = &j
			return
		}
	}
	if err := sc.Err(); err != nil {
		rec.err = fmt.Errorf("events: %v", err)
		return
	}
	rec.err = fmt.Errorf("events: stream ended before the job finished")
}

// checkWinner rebuilds a finished job's winning mapping from its encoding
// and factors, evaluates it cold, and requires bit-equal cycles. It
// returns the cycles. (The result's notation dump does not parse back for
// GA-generated trees: their tile names carry an "@L<level>" suffix.)
func checkWinner(rec *jobRecord) (float64, error) {
	resp := rec.winner
	spec, err := serve.PickArch(rec.req.Arch)
	if err != nil {
		return 0, err
	}
	g, err := serve.PickGraph(rec.req.Workload)
	if err != nil {
		return 0, err
	}
	enc, err := parseEncoding(resp.Encoding)
	if err != nil {
		return 0, err
	}
	root, err := mapper.NewGeneratedDataflow("best", g, spec, enc).Build(resp.Factors)
	if err != nil {
		return 0, fmt.Errorf("rebuilding the winner: %v", err)
	}
	res, err := core.Evaluate(root, g, spec, core.Options{})
	if err != nil {
		return 0, fmt.Errorf("cold evaluation of the winner: %v", err)
	}
	if res.Cycles != resp.Cycles {
		return 0, fmt.Errorf("winner cycles %v, cold Evaluate %v", resp.Cycles, res.Cycles)
	}
	return resp.Cycles, nil
}

// traceExplore derives the traced explore figures. Job timestamps give the
// queue wait and run time, the SSE streams the events and per-generation
// checkpoint times, the handler seam the submit time and the fleet peer
// traffic. The search itself runs inside the server, so a sample of jobs
// is replayed locally through mapper.TreeSearch with a counting memo.Cache
// and a Progress hook, and their tuned candidates through traced
// TileSearches, to split run time between mapper, dataflows and core.
func traceExplore(tr *tracer, env *exploreEnv, recs []*jobRecord, fleet bool, compiles int64, storeBytes int64) {
	var queue, run, submit, interactive, bulk, gen []float64
	events := 0
	var sumSubmit, sumRun, sumTurn time.Duration
	var done []*jobRecord
	for _, rec := range recs {
		if rec.err != nil || rec.final.State != "done" || rec.final.StartedAt == nil {
			continue
		}
		done = append(done, rec)
		events += rec.events
		q := rec.final.StartedAt.Sub(rec.final.CreatedAt)
		ru := rec.final.FinishedAt.Sub(*rec.final.StartedAt)
		queue = append(queue, ms(q))
		run = append(run, ms(ru))
		submit = append(submit, ms(rec.submitRTT))
		switch rec.req.Class {
		case "interactive":
			interactive = append(interactive, ms(q))
		case "bulk":
			bulk = append(bulk, ms(q))
		}
		prev := *rec.final.StartedAt
		for _, cp := range rec.checkpoints {
			gen = append(gen, ms(cp.Sub(prev)))
			prev = cp
		}
		sumSubmit += rec.submitRTT
		sumRun += ru
		sumTurn += rec.final.FinishedAt.Sub(rec.submitStart)
	}
	if len(done) == 0 {
		return
	}
	tr.set("jobs.queue_wait_p50_ms", median(queue))
	tr.set("jobs.run_p50_ms", median(run))
	tr.set("jobs.store_bytes_per_job", float64(storeBytes)/float64(len(recs)))
	tr.set("jobs.events_per_job", float64(events)/float64(len(done)))
	tr.set("sched.interactive_wait_p90_ms", percentile(interactive, 90))
	tr.set("sched.bulk_wait_p50_ms", median(bulk))
	tr.set("serve.submit_p50_ms", median(submit))
	tr.set("mapper.generation_ms", mean(gen))
	tr.set("core.compiles_per_op", float64(compiles)/float64(len(recs)))
	node := env.coord
	if fleet {
		node = env.worker
		tr.set("fleet.claim_wait_p50_ms", median(env.seam.grantedClaims()))
		tr.set("fleet.peer_requests_per_job", float64(env.seam.fleetRequests.Load())/float64(len(recs)))
		if m, err := scrapeMetrics(env.client, env.base); err == nil {
			if n := m["tileflow_fleet_memo_hits_total"] + m["tileflow_fleet_memo_misses_total"]; n > 0 {
				tr.set("fleet.memo_hit_rate", m["tileflow_fleet_memo_hits_total"]/n)
			}
		}
	}
	if st := node.CacheStats(); st.Hits+st.Misses > 0 {
		tr.set("memo.hit_rate", float64(st.Hits)/float64(st.Hits+st.Misses))
	}

	// Replay a sample of jobs locally, alone, to split the run time.
	rp := replaySearches(done, 6)
	tr.set("mapper.candidates_per_job", rp.candidatesPerJob())
	tr.set("mapper.fitness_hit_rate", rp.cache.hitRate())
	rp.tt.setFigures(tr)

	// Attribute every job's turnaround: the submit round trip splits into
	// the handler (serve) and the loopback HTTP around it; on
	// explore-fleet, the coordinator's handler time for granted claims is
	// fleet's; the run time is split by the replay's proportions of
	// dataflows, core and mapper time in an uncontended local search. The
	// rest of the queue wait is jobs waiting for CPU that other jobs hold,
	// not time in any layer's code, and stays unattributed, as does what the
	// replay cannot explain: CPU contention between concurrent jobs,
	// checkpoint persistence, remote memo round trips.
	tr.addTraced(sumTurn)
	handler := env.seam.time("submit")
	tr.addSelf("serve", handler)
	tr.addSelf("http", sumSubmit-handler)
	if fleet {
		tr.addSelf("fleet", env.seam.claimTime())
	}
	if rp.wall > 0 && rp.jobRun > 0 && rp.tt.searchTime > 0 {
		// The replayed searches ran one candidate at a time, alone: their
		// wall time is the candidates' tuning time plus the GA's own. The
		// re-tuned candidates split the tuning part by layer. The share of
		// the server's run time the replay explains is split alike.
		local := float64(sumRun) * min(1, float64(rp.wall)/float64(rp.jobRun))
		tuning := min(rp.wall, rp.tt.searchTime)
		part := func(d time.Duration) time.Duration {
			f := float64(tuning) / float64(rp.tt.searchTime) * float64(d) / float64(rp.wall)
			return time.Duration(local * f)
		}
		tr.addSelf("dataflows", part(rp.tt.build.total))
		tr.addSelf("core", part(rp.tt.core))
		ga := time.Duration(local * float64(rp.wall-tuning) / float64(rp.wall))
		tr.addSelf("mapper", part(rp.tt.mcts)+ga)
	}
}

// searchReplay is the outcome of replaying sampled jobs locally.
type searchReplay struct {
	jobs   int
	wall   time.Duration // the replayed searches' time, re-tuning excluded
	jobRun time.Duration // the same jobs' run time on the server
	cache  *countingCache
	tt     tuneTrace
}

func (rp *searchReplay) candidatesPerJob() float64 {
	if rp.jobs == 0 {
		return 0
	}
	return float64(rp.cache.misses.Load()) / float64(rp.jobs)
}

// replaySearches reruns up to n finished jobs' searches in-process with
// the same request and seed, one candidate at a time, then re-tunes their
// candidates through traced TileSearches to split the search time by
// layer.
func replaySearches(done []*jobRecord, n int) *searchReplay {
	rp := &searchReplay{cache: &countingCache{Cache: memo.NewShardedLRU(4096)}}
	for _, rec := range done {
		if rp.jobs >= n {
			break
		}
		spec, err := serve.PickArch(rec.req.Arch)
		if err != nil {
			continue
		}
		g, err := serve.PickGraph(rec.req.Workload)
		if err != nil {
			continue
		}
		var lastCP *mapper.Checkpoint
		ts := &mapper.TreeSearch{
			G: g, Spec: spec,
			Population: rec.req.Population, Generations: rec.req.Generations,
			TileRounds: rec.req.TileRounds, TopK: rec.req.TopK, Seed: rec.req.Seed,
			Parallel: 1,
			Cache:    rp.cache,
			Progress: func(p mapper.ProgressEvent) { lastCP = p.Checkpoint },
		}
		t0 := time.Now()
		ts.Run()
		search := time.Since(t0)
		rp.jobs++
		rp.jobRun += rec.final.FinishedAt.Sub(*rec.final.StartedAt)
		rp.wall += search
		if lastCP == nil {
			continue
		}
		// Re-tune each candidate alone through a traced TileSearch: its
		// Build, Compile and evaluation times split the sequential search's
		// wall time by layer; the rest of that wall time is the mapper's
		// own (MCTS and GA).
		for _, st := range lastCP.Tuned {
			gd := mapper.NewGeneratedDataflow("replay", g, spec, encodingOf(st.Encoding))
			td := &tracedDataflow{Dataflow: gd}
			ts := &mapper.TileSearch{Dataflow: td, Spec: spec, Rounds: st.Rounds, Seed: rec.req.Seed}
			t1 := time.Now()
			ts.Run()
			rp.tt.replay(spec, td, time.Since(t1))
		}
	}
	return rp
}

// parseEncoding reads mapper.Encoding.String's Fig 7b row back:
// "op<i>:top" or "op<i>->op<j>@L<level>:<binding>" per operator.
func parseEncoding(s string) (*mapper.Encoding, error) {
	bindings := map[string]core.Binding{}
	for _, b := range []core.Binding{core.Seq, core.Shar, core.Para, core.Pipe} {
		bindings[b.String()] = b
	}
	e := &mapper.Encoding{}
	for i, f := range strings.Fields(s) {
		var op, target, level int
		var bind string
		if _, err := fmt.Sscanf(f, "op%d:top", &op); err == nil && op == i {
			e.Target, e.Mem, e.Binding = append(e.Target, -1), append(e.Mem, 0), append(e.Binding, core.Seq)
			continue
		}
		if _, err := fmt.Sscanf(strings.Replace(f, ":", " ", 1), "op%d->op%d@L%d %s", &op, &target, &level, &bind); err != nil || op != i {
			return nil, fmt.Errorf("bad encoding column %q", f)
		}
		b, ok := bindings[bind]
		if !ok {
			return nil, fmt.Errorf("bad binding in encoding column %q", f)
		}
		e.Target, e.Mem, e.Binding = append(e.Target, target), append(e.Mem, level), append(e.Binding, b)
	}
	return e, nil
}

func encodingOf(s mapper.EncodingState) *mapper.Encoding {
	e := &mapper.Encoding{
		Target:  append([]int(nil), s.Target...),
		Mem:     append([]int(nil), s.Mem...),
		Binding: make([]core.Binding, len(s.Binding)),
	}
	for i, b := range s.Binding {
		e.Binding[i] = core.Binding(b)
	}
	return e
}

// countingCache wraps the fitness cache at the memo.Cache seam.
type countingCache struct {
	memo.Cache
	hits, misses atomic.Int64
}

func (c *countingCache) Get(key string) (any, bool) {
	v, ok := c.Cache.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

func (c *countingCache) hitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// newClient is the benchmark's HTTP client: keep-alive, at most nproc
// connections to the server.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
}

// loopback is an HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	base string // the server's base URL
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close closes the listener and every connection, and waits for the
// server's goroutine to end.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// postJSON posts v as JSON and returns the status and body; a non-empty
// class tags the request for a traced handler seam.
func postJSON(c *http.Client, url, class string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return postBytes(c, url, class, b)
}

func postBytes(c *http.Client, url, class string, b []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if class != "" {
		req.Header.Set(classHeader, class)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrapeMetrics reads the unlabelled samples of a node's /metrics page.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v float64
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
