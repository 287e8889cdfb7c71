package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layers are the modules a traced run attributes time to, named after the
// repository's internal packages (http is the loopback round trip outside
// the server's handler). unattributed is what no layer accounts for.
var layers = []string{
	"dataflows", "core", "mapper", "jobs", "fleet", "serve", "http", "memo",
	"notation", "yamlfe", "workload", "arch",
}

// layerMetrics are the per-layer figures of a traced run, in table order.
// Every workload reports all of them; a figure for a layer the workload
// does not exercise reads 0.
var layerMetrics = []metricDef{
	{"dataflows.build_us", "us"},
	{"core.evaluate_delta_us", "us"},
	{"core.evaluate_delta_allocs", "count"},
	{"core.evaluate_into_us", "us"},
	{"mapper.mcts_self_us", "us"},
	{"core.compile_us", "us"},
	{"core.compile_allocs", "count"},
	{"core.compiles_per_op", "count"},
	{"mapper.candidates_per_job", "count"},
	{"mapper.fitness_hit_rate", "ratio"},
	{"mapper.generation_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.run_p50_ms", "ms"},
	{"jobs.store_bytes_per_job", "bytes"},
	{"jobs.events_per_job", "count"},
	{"sched.interactive_wait_p90_ms", "ms"},
	{"sched.bulk_wait_p50_ms", "ms"},
	{"serve.submit_p50_ms", "ms"},
	{"fleet.peer_requests_per_job", "count"},
	{"fleet.claim_wait_p50_ms", "ms"},
	{"fleet.memo_hit_rate", "ratio"},
	{"notation.parse_us", "us"},
	{"yamlfe.load_us", "us"},
	{"workload.parse_graph_us", "us"},
	{"arch.parse_spec_us", "us"},
	{"core.rebind_us", "us"},
	{"core.evaluate_us", "us"},
	{"core.evaluate_batch_item_us", "us"},
	{"serve.codec_us", "us"},
	{"serve.hot_p50_us", "us"},
	{"serve.retile_p50_us", "us"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.healthz_p50_us", "us"},
	{"memo.hit_rate", "ratio"},
	{"memo.duplicate_leaders", "count"},
}

// perLayer is the full traced table: the layer figures, each layer's share
// of the traced time, unattributed.share and the tracing overhead.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, l := range layers {
		out = append(out, metricDef{l + ".share", "ratio"})
	}
	return append(out, metricDef{"unattributed.share", "ratio"}, metricDef{"trace.overhead", "ratio"})
}

// tracer collects a traced run's figures. Layer time is accumulated as
// self time: a seam's duration minus the parts of it that belong to the
// layers below. Shares divide it by the traced time, the sum of the
// measured operations' durations, so the layer shares and
// unattributed.share add up to one.
type tracer struct {
	mu     sync.Mutex
	vals   map[string]float64
	self   map[string]time.Duration
	traced time.Duration
}

func newTracer() *tracer {
	return &tracer{vals: map[string]float64{}, self: map[string]time.Duration{}}
}

func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.vals[name] = v
	t.mu.Unlock()
}

// addSelf charges d of self time to a layer. Estimates can come out
// negative when a replay runs faster than the original call; those are
// charged as zero.
func (t *tracer) addSelf(layer string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.self[layer] += d
	t.mu.Unlock()
}

// addTraced adds to the traced time the shares divide.
func (t *tracer) addTraced(d time.Duration) {
	t.mu.Lock()
	t.traced += d
	t.mu.Unlock()
}

// get returns a figure; shares are derived from the accumulated times.
func (t *tracer) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traced > 0 {
		var sum time.Duration
		for _, l := range layers {
			if name == l+".share" {
				return float64(t.self[l]) / float64(t.traced)
			}
			sum += t.self[l]
		}
		if name == "unattributed.share" {
			return 1 - float64(sum)/float64(t.traced)
		}
	}
	return t.vals[name]
}

// stopwatch accumulates the durations of many short timed calls.
type stopwatch struct {
	total time.Duration
	n     int
}

func (s *stopwatch) time(fn func()) {
	t0 := time.Now()
	fn()
	s.total += time.Since(t0)
	s.n++
}

// perCall is the mean call time in microseconds (0 with no calls).
func (s *stopwatch) perCall() float64 {
	if s.n == 0 {
		return 0
	}
	return us(s.total) / float64(s.n)
}

// classHeader tags a traced request with its class for the handler seam.
const classHeader = "X-Perfbench-Class"

// handlerSeam wraps a node's http.Handler on a traced run: it accumulates
// handler time per request class (the classHeader the benchmark's client
// sets), counts fleet peer-protocol requests, and times the fleet claims
// that grant a job.
type handlerSeam struct {
	next          http.Handler
	nanos         map[string]*atomic.Int64 // one per class; fixed at construction
	fleetRequests atomic.Int64

	mu     sync.Mutex
	claims []time.Duration // handler time of each granted claim
}

func newHandlerSeam(next http.Handler, classes ...string) *handlerSeam {
	h := &handlerSeam{next: next, nanos: map[string]*atomic.Int64{}}
	for _, c := range classes {
		h.nanos[c] = &atomic.Int64{}
	}
	return h
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/fleet/") {
		h.fleetRequests.Add(1)
	}
	if r.URL.Path == "/v1/fleet/claim" {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.next.ServeHTTP(sw, r)
		if d := time.Since(t0); sw.status == http.StatusOK {
			h.mu.Lock()
			h.claims = append(h.claims, d)
			h.mu.Unlock()
		}
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	if n := h.nanos[r.Header.Get(classHeader)]; n != nil {
		n.Add(int64(time.Since(t0)))
	}
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// grantedClaims is the handler time of each granted claim, in ms.
func (h *handlerSeam) grantedClaims() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.claims))
	for i, d := range h.claims {
		out[i] = ms(d)
	}
	return out
}

// claimTime is the total handler time of the granted claims.
func (h *handlerSeam) claimTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum time.Duration
	for _, d := range h.claims {
		sum += d
	}
	return sum
}

// tag is the class header value for a request: the class on a traced run
// (h non-nil), nothing otherwise.
func (h *handlerSeam) tag(class string) string {
	if h == nil {
		return ""
	}
	return class
}

// time is the handler time accumulated for a class.
func (h *handlerSeam) time(class string) time.Duration {
	return time.Duration(h.nanos[class].Load())
}
