package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// The serve class mix. hot repeats a working set far smaller than the
// memo cache; retile sends a known template with fresh factors (a
// compiled-program re-bind); cold sends a new structure as notation or as
// a YAML config (parse + Compile); batch posts serveBatchSize fresh retile
// points to /v1/evaluate/batch.
//
// No record of real traffic exists, so the mix is an assumption, stated
// once here and in README.md. serveWeights is the modelled share of each
// class by request count: p50_ms and tail_ms are the percentiles of that
// mixture (see windowMetrics), whatever share of the samples each class
// got. The weights put the median inside hot (weight over one half) and
// the p99 inside the fresh classes' slow end (cold and batch weigh 5%,
// cold four times batch), so p50_ms reads the cached path and tail_ms
// mostly cold parsing and Compile.
var serveWeights = map[string]float64{"hot": 0.90, "retile": 0.05, "cold": 0.04, "batch": 0.01}

// serveTail is the percentile tail_ms reports on serve.
const serveTail = 99

// Every client sends hot requests back to back and, every 1/freshPerSecond
// seconds, a fresh one instead, whose class follows freshCycle in a seeded
// order: the fresh classes in serveWeights' proportions. Fresh points are
// used once each and their references are computed before set-up, so
// pacing them keeps the pools a fixed size on any machine, while hot
// traffic fills the remaining capacity. The pace only sets how many fresh
// samples a run has (well over ten beyond the p99) and how much of the
// server's time fresh work takes (the traced table's handler split), not
// p50_ms or tail_ms.
const (
	freshPerSecond = 70
	serveBatchSize = 8
)

// freshCycle is the class pattern of one client's fresh requests: per 10
// fresh requests, 5 retile, 4 cold and 1 batch.
var freshCycle = []string{
	"retile", "retile", "retile", "retile", "retile",
	"cold", "cold", "cold", "cold", "batch",
}

// freshCycles is how many freshCycle rounds one client can use in a run.
func freshCycles(o options) int {
	perClient := int(o.seconds.Seconds()*freshPerSecond) + 1
	return (perClient + len(freshCycle) - 1) / len(freshCycle)
}

// servePoint is one design point with the figures its response must carry.
type servePoint struct {
	class string
	req   serve.EvaluateRequest
	body  []byte
	// reference figures from core.EvaluateContext before set-up (retile, cold)
	cycles, dram, energy float64
	// hot: the cached response body every later response must equal, taken
	// at set-up
	want []byte

	// tmpl is the catalog template of hot and retile points.
	tmpl *template
	// key identifies the design point: the server's canonical cache key
	// for hot points, its SHA-256 for fresh ones (only compared).
	key string
}

// serveInputs are what the load generator sends: the hot set and the
// fresh pools with their reference results. They are drawn once per run,
// before the timed set-ups and the heap baseline, so neither setup_s nor
// heap_peak_mb counts the load generator's own work.
type serveInputs struct {
	hot, retile, cold []*servePoint
}

func drawServeInputs(o options) (*serveInputs, error) {
	ts, err := validTemplates()
	if err != nil {
		return nil, err
	}
	if o.smoke {
		ts = ts[:12]
	}
	in := &serveInputs{}
	seen := map[string]bool{}
	for i := range ts {
		t := &ts[i]
		req := serve.EvaluateRequest{Arch: t.arch, Workload: t.workload, Dataflow: t.dataflow}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		key := serve.EvaluateKey(t.spec, t.df.Graph(), t.root(), core.Options{})
		sum := sha256.Sum256([]byte(key))
		seen[string(sum[:])] = true
		in.hot = append(in.hot, &servePoint{class: "hot", req: req, body: body, tmpl: t, key: key})
	}
	rounds := runtime.GOMAXPROCS(0) * freshCycles(o)
	nRetile, nCold := rounds*(5+serveBatchSize), rounds*4
	in.retile = drawPoints(nRetile, seen, func(i int) *servePoint { return retilePoint(in.hot, o.seed, i) })
	in.cold = drawPoints(nCold, seen, func(i int) *servePoint { return coldPoint(o.seed, i) })
	if len(in.retile) < nRetile || len(in.cold) < nCold {
		return nil, fmt.Errorf("drew only %d retile and %d cold points of %d and %d", len(in.retile), len(in.cold), nRetile, nCold)
	}
	return in, nil
}

type serveEnv struct {
	*serveInputs
	srv       *serve.Server
	lb        *loopback
	base      string
	client    *http.Client
	seam      *handlerSeam
	hotCycles []float64

	// exchanges keeps the first request/response bodies of fresh points
	// on a traced run, for the codec replay.
	mu        sync.Mutex
	exchanges [][2][]byte
}

func (env *serveEnv) close() {
	if env.lb != nil {
		env.lb.close()
	}
	env.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env.srv.Close(ctx)
}

// openServe is the timed set-up: a server behind a loopback listener, its
// memo cache warmed with the hot set.
func openServe(in *serveInputs, traced bool) (*serveEnv, error) {
	env := &serveEnv{serveInputs: in, srv: serve.New(serve.Config{}), client: newClient()}
	var h http.Handler = env.srv.Handler()
	if traced {
		env.seam = newHandlerSeam(h, serveClasses[:]...)
		h = env.seam
	}
	var err error
	if env.lb, err = listen(h); err != nil {
		env.close()
		return nil, err
	}
	env.base = env.lb.base
	if err := env.warmHot(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warmHot evaluates every hot point once (filling the memo cache); a
// second request captures the cached body each later hot response must
// equal byte for byte. Every hot point must answer 200.
func (env *serveEnv) warmHot() error {
	for _, p := range env.hot {
		if status, body, err := postBytes(env.client, env.base+"/v1/evaluate", "", p.body); err != nil || status != http.StatusOK {
			return fmt.Errorf("hot point %v: status %d: %v %s", p.tmpl.catalogItem, status, err, bytes.TrimSpace(body))
		}
		status, want, err := postBytes(env.client, env.base+"/v1/evaluate", "", p.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("hot point %v: status %d on repeat: %v", p.tmpl.catalogItem, status, err)
		}
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(want, &resp); err != nil || !resp.Cached {
			return fmt.Errorf("hot point %v: second response is not a cache hit", p.tmpl.catalogItem)
		}
		p.want = want
		env.hotCycles = append(env.hotCycles, resp.Result.Cycles)
	}
	return nil
}

// drawPoints draws n distinct evaluable points in parallel: candidate i
// comes from gen(i); candidates that fail to evaluate, or repeat a design
// point already drawn, are skipped. The result is in candidate order, so
// the same seed always yields the same pool.
func drawPoints(n int, seen map[string]bool, gen func(i int) *servePoint) []*servePoint {
	out := make([]*servePoint, 0, n)
	for base := 0; len(out) < n && base < 8*n+64; {
		batch := make([]*servePoint, n-len(out)+8)
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(batch); k = int(next.Add(1)) - 1 {
					batch[k] = gen(base + k)
				}
			}()
		}
		wg.Wait()
		base += len(batch)
		for _, p := range batch {
			if p != nil && !seen[p.key] && len(out) < n {
				seen[p.key] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func (p *servePoint) opts() core.Options {
	return core.Options{SkipCapacityCheck: p.req.SkipCapacityCheck, SkipPECheck: p.req.SkipPECheck, DisableRetention: p.req.DisableRetention}
}

// reference evaluates the point cold and records the figures its response
// must carry; it returns nil when the point does not evaluate, so only
// points that evaluate are drawn.
func (p *servePoint) reference(root *core.Node, g *workload.Graph, spec *arch.Spec) *servePoint {
	res, err := core.EvaluateContext(context.Background(), root, g, spec, p.opts())
	if err != nil {
		return nil
	}
	p.cycles, p.dram, p.energy = res.Cycles, res.DRAMTraffic(), res.EnergyPJ()
	sum := sha256.Sum256([]byte(serve.EvaluateKey(spec, g, root, p.opts())))
	p.key = string(sum[:])
	body, err := json.Marshal(&p.req)
	if err != nil {
		return nil
	}
	p.body = body
	return p
}

// retilePoint is candidate i of the retile pool: a hot template with
// seeded random tiling factors.
func retilePoint(hot []*servePoint, seed int64, i int) *servePoint {
	rng := rand.New(rand.NewSource(mix64(seed, 4, int64(i))))
	hp := hot[rng.Intn(len(hot))]
	t := hp.tmpl
	specs := t.df.Factors()
	if len(specs) == 0 {
		return nil
	}
	factors := make(map[string]int, len(specs))
	for _, f := range specs {
		ch := f.Choices()
		factors[f.Key] = ch[rng.Intn(len(ch))]
	}
	root, err := t.df.Build(factors)
	if err != nil {
		return nil
	}
	p := &servePoint{class: "retile", tmpl: t, req: serve.EvaluateRequest{Arch: t.arch, Workload: t.workload, Dataflow: t.dataflow, Factors: factors}}
	return p.reference(root, t.df.Graph(), t.spec)
}

// coldPoint is candidate i of the cold pool: a conformance-generated
// design point, sent as notation with inline arch and workload specs or
// as one YAML config. The reference is taken on the parsed inputs, as the
// server sees them.
func coldPoint(seed int64, i int) *servePoint {
	pt := conformance.Generate(mix64(seed, 5, int64(i)))
	p := &servePoint{class: "cold", req: serve.EvaluateRequest{
		SkipCapacityCheck: pt.Opts.SkipCapacityCheck,
		SkipPECheck:       pt.Opts.SkipPECheck,
		DisableRetention:  pt.Opts.DisableRetention,
	}}
	if i%2 == 1 {
		p.req.ConfigYAML = yamlfe.Render(pt.Spec, pt.Graph, pt.Root)
		cfg, err := yamlfe.LoadStrict(p.req.ConfigYAML)
		if err != nil {
			return nil
		}
		return p.reference(cfg.Root, cfg.Graph, cfg.Spec)
	}
	p.req.ArchSpec = arch.FormatSpec(pt.Spec)
	p.req.WorkloadSpec = workload.CanonicalGraph(pt.Graph)
	p.req.Notation = notation.Print(pt.Root)
	spec, err := arch.ParseSpec(p.req.ArchSpec)
	if err != nil {
		return nil
	}
	g, err := workload.ParseGraph(p.req.WorkloadSpec)
	if err != nil {
		return nil
	}
	root, err := notation.Parse(p.req.Notation, g)
	if err != nil {
		return nil
	}
	return p.reference(root, g, spec)
}

// serveOp is one completed request, kept small: a run records hundreds
// of thousands of them while the heap is sampled.
type serveOp struct {
	end, lat float32 // completion from the window's start, and latency, in ms
	class    uint8   // index into serveClasses
	ok       bool
}

// serveClasses names the request classes.
var serveClasses = [...]string{"hot", "retile", "cold", "batch"}

func newServeOp(class string, lat time.Duration) serveOp {
	for i, c := range serveClasses {
		if c == class {
			return serveOp{class: uint8(i), lat: float32(ms(lat))}
		}
	}
	panic("perfbench: unknown serve class " + class)
}

func (op serveOp) className() string { return serveClasses[op.class] }

// runServe is the serve workload: a closed loop of nproc keep-alive
// clients on /v1/evaluate (and a share of /v1/evaluate/batch) over the
// hot/retile/cold mix. ops_per_s counts HTTP requests; p50_ms and tail_ms
// (p99) are percentiles of request latency weighted by serveWeights;
// best_cycles_geomean is the geometric mean of the hot working set's
// cycles.
func runServe(o options, tr *tracer) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	in, err := drawServeInputs(o)
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	env, setupS, err := repeatSetup(func() (*serveEnv, error) { return openServe(in, tr != nil) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer env.close()
	r.metrics["setup_s"] = setupS
	r.metrics["best_cycles_geomean"] = geomean(env.hotCycles)

	clients := runtime.GOMAXPROCS(0)
	maxFresh := freshCycles(o) * len(freshCycle)
	retileShare, coldShare := len(env.retile)/clients, len(env.cold)/clients
	perClient := make([][]serveOp, clients)
	var mu sync.Mutex
	var fails []string
	freshSent := 0
	stats0 := env.srv.CacheStats()
	compiles0 := core.CompileCount()
	start := time.Now()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix64(o.seed, 6, int64(c))))
			// Each client owns a slice of each fresh pool.
			retile := env.retile[c*retileShare : (c+1)*retileShare]
			cold := env.cold[c*coldShare : (c+1)*coldShare]
			interval := time.Second / freshPerSecond
			nextFresh := start.Add(interval * time.Duration(c) / time.Duration(clients))
			order := append([]string(nil), freshCycle...)
			var local []serveOp
			var localFails []string
			sent := 0
			for time.Now().Before(deadline) {
				var op serveOp
				var why string
				if sent < maxFresh && !time.Now().Before(nextFresh) {
					nextFresh = nextFresh.Add(interval)
					if sent%len(order) == 0 {
						rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
					}
					switch order[sent%len(order)] {
					case "retile":
						op, why = env.doOne(retile[0])
						retile = retile[1:]
					case "cold":
						op, why = env.doOne(cold[0])
						cold = cold[1:]
					default:
						op, why = env.doBatch(retile[:serveBatchSize])
						retile = retile[serveBatchSize:]
					}
					sent++
				} else {
					op, why = env.doOne(env.hot[rng.Intn(len(env.hot))])
				}
				op.end = float32(ms(time.Since(start)))
				local = append(local, op)
				if !op.ok {
					localFails = append(localFails, why)
				}
			}
			perClient[c] = local
			mu.Lock()
			fails = append(fails, localFails...)
			freshSent += sent
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stats1 := env.srv.CacheStats()
	compiles := core.CompileCount() - compiles0
	r.metrics["heap_peak_mb"] = heap.Stop()
	var ops []serveOp
	for _, local := range perClient {
		ops = append(ops, local...)
	}
	if len(ops) == 0 {
		return nil, errNoOps
	}
	r.attempted = len(ops)
	for _, f := range fails {
		r.fail("%s", f)
	}
	samples := make([]opSample, len(ops))
	byClass := map[string][]float64{}
	for i, op := range ops {
		c := op.className()
		samples[i] = opSample{end: time.Duration(float64(op.end) * float64(time.Millisecond)), lat: float64(op.lat), work: 1, class: c}
		byClass[c] = append(byClass[c], float64(op.lat))
	}
	windowMetrics(r, "requests; class-weighted request latency", serveTail, o.seconds, samples, serveWeights)
	r.notef("%d requests in %.2fs by %d clients: hot %d, retile %d, cold %d, batch %d",
		len(ops), elapsed.Seconds(), clients, len(byClass["hot"]), len(byClass["retile"]), len(byClass["cold"]), len(byClass["batch"]))
	if freshSent == clients*maxFresh {
		r.notef("WARNING: the fresh-point pools ran out before the window ended")
	}
	if tr != nil {
		traceServe(r, tr, env, ops, byClass, stats0, stats1, compiles)
	}
	return r, nil
}

// doOne posts one /v1/evaluate request and checks its response.
func (env *serveEnv) doOne(p *servePoint) (serveOp, string) {
	t0 := time.Now()
	status, body, err := postBytes(env.client, env.base+"/v1/evaluate", env.seam.tag(p.class), p.body)
	op := newServeOp(p.class, time.Since(t0))
	switch {
	case err != nil:
		return op, fmt.Sprintf("%s: %v", p.class, err)
	case status != http.StatusOK:
		return op, fmt.Sprintf("%s: status %d: %s", p.class, status, bytes.TrimSpace(body))
	case p.class == "hot":
		if !bytes.Equal(body, p.want) {
			return op, fmt.Sprintf("hot %v: body differs from the first cached response", p.tmpl.catalogItem)
		}
	default:
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return op, fmt.Sprintf("%s: decoding the response: %v", p.class, err)
		}
		if why := p.check(resp.Result); why != "" {
			return op, why
		}
		if env.seam != nil {
			env.mu.Lock()
			if len(env.exchanges) < replayServeSample {
				env.exchanges = append(env.exchanges, [2][]byte{p.body, body})
			}
			env.mu.Unlock()
		}
	}
	op.ok = true
	return op, ""
}

// doBatch posts retile points to /v1/evaluate/batch and checks each item.
func (env *serveEnv) doBatch(pts []*servePoint) (serveOp, string) {
	breq := serve.BatchRequest{Requests: make([]serve.EvaluateRequest, len(pts))}
	for i, p := range pts {
		breq.Requests[i] = p.req
	}
	b, err := json.Marshal(&breq)
	if err != nil {
		return newServeOp("batch", 0), err.Error()
	}
	t0 := time.Now()
	status, body, err := postBytes(env.client, env.base+"/v1/evaluate/batch", env.seam.tag("batch"), b)
	op := newServeOp("batch", time.Since(t0))
	if err != nil {
		return op, fmt.Sprintf("batch: %v", err)
	}
	if status != http.StatusOK {
		return op, fmt.Sprintf("batch: status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Items) != len(pts) {
		return op, fmt.Sprintf("batch: malformed response (%v)", err)
	}
	for i, it := range resp.Items {
		if it.Error != "" || it.Response == nil {
			return op, fmt.Sprintf("batch item %d: %s", i, it.Error)
		}
		if why := pts[i].check(it.Response.Result); why != "" {
			return op, "batch item: " + why
		}
	}
	op.ok = true
	return op, ""
}

// check compares a served result with the set-up reference.
func (p *servePoint) check(res *serve.ResultJSON) string {
	if res == nil {
		return p.class + ": response has no result"
	}
	if res.Cycles != p.cycles || res.DRAMTrafficWords != p.dram || res.EnergyPJ != p.energy {
		return fmt.Sprintf("%s: served cycles/dram/energy %v/%v/%v, reference %v/%v/%v",
			p.class, res.Cycles, res.DRAMTrafficWords, res.EnergyPJ, p.cycles, p.dram, p.energy)
	}
	return ""
}

// traceServe derives the traced serve figures. Client latencies give the
// per-class percentiles, the handler seam the time spent inside the
// server, the cache counters the memo figures. Work the server does
// internally is replayed on a sample of each class through the layer's
// public function: the codec, the parsers, Compile, WithTiling, Evaluate
// and EvaluateBatch, and memo lookups for hot requests.
func traceServe(r *result, tr *tracer, env *serveEnv, ops []serveOp, byClass map[string][]float64, s0, s1 memo.Stats, compiles int64) {
	tr.set("serve.hot_p50_us", 1000*median(byClass["hot"]))
	tr.set("serve.retile_p50_us", 1000*median(byClass["retile"]))
	tr.set("serve.cold_p50_ms", median(byClass["cold"]))
	tr.set("core.compiles_per_op", float64(compiles)/float64(len(ops)))
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
	if hits+misses > 0 {
		tr.set("memo.hit_rate", float64(hits)/float64(hits+misses))
	}
	// Every fresh point is a distinct design: each should cost exactly one
	// leader execution (one miss).
	fresh := len(byClass["retile"]) + len(byClass["cold"]) + serveBatchSize*len(byClass["batch"])
	tr.set("memo.duplicate_leaders", float64(int64(misses)-int64(fresh)))

	var healthz []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		resp, err := env.client.Get(env.base + "/healthz")
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		healthz = append(healthz, us(time.Since(t0)))
	}
	tr.set("serve.healthz_p50_us", median(healthz))

	rp := replayServe(env)
	tr.set("serve.codec_us", rp.codec.perCall())
	tr.set("notation.parse_us", rp.notation.perCall())
	tr.set("yamlfe.load_us", rp.yaml.perCall())
	tr.set("workload.parse_graph_us", rp.graph.perCall())
	tr.set("arch.parse_spec_us", rp.spec.perCall())
	tr.set("core.compile_us", rp.compile.perCall())
	if rp.compile.n > 0 {
		tr.set("core.compile_allocs", float64(rp.compileAllocs)/float64(rp.compile.n))
	}
	tr.set("core.rebind_us", rp.rebind.perCall())
	tr.set("core.evaluate_us", rp.evaluate.perCall())
	tr.set("core.evaluate_batch_item_us", rp.batchItem.perCall())
	tr.set("dataflows.build_us", rp.build.perCall())

	// Attribute each class's requests: loopback HTTP is the client latency
	// outside the handler; inside it, each layer gets its replayed
	// per-request time and serve keeps the rest of the handler time.
	n := map[string]float64{}
	var client time.Duration
	for _, op := range ops {
		n[op.className()]++
		client += time.Duration(float64(op.lat) * float64(time.Millisecond))
	}
	var handler time.Duration
	for _, c := range serveClasses {
		handler += env.seam.time(c)
	}
	if handler > 0 {
		split := ""
		for _, c := range serveClasses {
			split += fmt.Sprintf(" %s %.1f%%", c, 100*float64(env.seam.time(c))/float64(handler))
		}
		r.notef("server handler time by class:%s", split)
	}
	tr.addTraced(client)
	tr.addSelf("http", client-handler)
	per := func(s *stopwatch) time.Duration {
		if s.n == 0 {
			return 0
		}
		return s.total / time.Duration(s.n)
	}
	type part struct {
		layer string
		d     time.Duration // per request
	}
	classParts := map[string][]part{
		"hot":    {{"memo", per(&rp.memo)}},
		"retile": {{"dataflows", per(&rp.build)}, {"core", per(&rp.rebind) + per(&rp.evaluate)}},
		// Half the cold requests are notation, half YAML configs.
		"cold": {
			{"notation", per(&rp.notation) / 2}, {"workload", per(&rp.graph) / 2}, {"arch", per(&rp.spec) / 2},
			{"yamlfe", per(&rp.yaml) / 2}, {"core", per(&rp.compile) + per(&rp.evaluate)},
		},
		"batch": {{"dataflows", serveBatchSize * per(&rp.build)}, {"core", serveBatchSize * per(&rp.batchItem)}},
	}
	for class, parts := range classParts {
		inner := time.Duration(0)
		for _, p := range parts {
			d := time.Duration(n[class]) * p.d
			tr.addSelf(p.layer, d)
			inner += d
		}
		// The handler time no lower layer explains is serve's own:
		// routing, the codec, the worker pool and the response write.
		tr.addSelf("serve", env.seam.time(class)-inner)
	}
}

// serveReplay holds the replayed per-call timings.
type serveReplay struct {
	codec, notation, yaml, graph, spec, compile, rebind, evaluate, batchItem, build, memo stopwatch
	compileAllocs                                                                         uint64
}

// replayServeSample is how many points of each class the replay uses.
const replayServeSample = 200

func replayServe(env *serveEnv) *serveReplay {
	rp := &serveReplay{}
	ctx := context.Background()
	sample := func(pool []*servePoint) []*servePoint {
		return pool[:min(len(pool), replayServeSample)]
	}
	// Codec: decode a request, encode the response served for it.
	env.mu.Lock()
	exchanges := env.exchanges
	env.mu.Unlock()
	for _, ex := range exchanges {
		var req serve.EvaluateRequest
		var resp serve.EvaluateResponse
		if json.Unmarshal(ex[1], &resp) != nil {
			continue
		}
		rp.codec.time(func() {
			json.Unmarshal(ex[0], &req)
			json.Marshal(&resp)
		})
	}
	// Memo: the hot path's two lookups, request literal then canonical key.
	lits := memo.NewShardedLRU(8192)
	outcomes := memo.NewFlightCache(nil, 8192)
	for _, p := range env.hot {
		lits.Put(string(p.body), p.key)
		outcomes.Put(p.key, p)
	}
	for i := 0; i < 2000; i++ {
		p := env.hot[i%len(env.hot)]
		rp.memo.time(func() {
			if k, ok := lits.Get(string(p.body)); ok {
				outcomes.Get(k.(string))
			}
		})
	}
	// Cold: the parsers, then Compile and Evaluate.
	for _, p := range sample(env.cold) {
		var spec *arch.Spec
		var g *workload.Graph
		var root *core.Node
		if p.req.ConfigYAML != "" {
			var cfg *yamlfe.Config
			rp.yaml.time(func() { cfg, _ = yamlfe.Load(p.req.ConfigYAML) })
			if cfg == nil {
				continue
			}
			spec, g, root = cfg.Spec, cfg.Graph, cfg.Root
		} else {
			var err error
			rp.spec.time(func() { spec, err = arch.ParseSpec(p.req.ArchSpec) })
			if err != nil {
				continue
			}
			rp.graph.time(func() { g, err = workload.ParseGraph(p.req.WorkloadSpec) })
			if err != nil {
				continue
			}
			rp.notation.time(func() { root, err = notation.Parse(p.req.Notation, g) })
			if err != nil {
				continue
			}
		}
		a0, t0 := allocCount(), time.Now()
		prog, err := core.Compile(root, g, spec)
		rp.compile.total += time.Since(t0)
		rp.compile.n++
		rp.compileAllocs += allocCount() - a0
		if err == nil {
			rp.evaluate.time(func() { prog.Evaluate(ctx, p.opts()) })
		}
	}
	// Retile: Build the tiling, re-bind the template's compiled program,
	// evaluate; and the same points through EvaluateBatch, per template.
	progs := map[*template]*core.Program{}
	groups := map[*template][]*core.Node{}
	for _, p := range sample(env.retile) {
		prog, ok := progs[p.tmpl]
		if !ok {
			var err error
			if prog, err = core.Compile(p.tmpl.root(), p.tmpl.df.Graph(), p.tmpl.spec); err != nil {
				continue
			}
			progs[p.tmpl] = prog
		}
		var root *core.Node
		var err error
		rp.build.time(func() { root, err = p.tmpl.df.Build(p.req.Factors) })
		if err != nil {
			continue
		}
		var q *core.Program
		rp.rebind.time(func() { q, err = prog.WithTiling(root) })
		if err == nil {
			rp.evaluate.time(func() { q.Evaluate(ctx, p.opts()) })
		}
		groups[p.tmpl] = append(groups[p.tmpl], root)
	}
	for t, roots := range groups {
		t0 := time.Now()
		progs[t].EvaluateBatch(ctx, roots, core.Options{})
		rp.batchItem.total += time.Since(t0)
		rp.batchItem.n += len(roots)
	}
	return rp
}

// root builds the template's default tree.
func (t *template) root() *core.Node {
	root, _ := t.df.Build(t.df.DefaultFactors())
	return root
}
