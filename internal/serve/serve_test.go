package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestServer starts a Server behind an httptest server. Cleanups run
// last-in first-out, so the HTTP server stops before the Server closes its
// job workers and sweep ticker.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { closeNode(t, s) })
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

// directResponse computes the reference answer for a template design point
// without going through the service, the way cmd/tileflow does it.
func directResponse(t *testing.T, archName, wl, dfName string, opts core.Options) *EvaluateResponse {
	t.Helper()
	spec, err := PickArch(archName)
	if err != nil {
		t.Fatalf("PickArch: %v", err)
	}
	df, err := PickDataflow(dfName, wl, spec)
	if err != nil {
		t.Fatalf("PickDataflow: %v", err)
	}
	g := df.Graph()
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := core.Evaluate(root, g, spec, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return &EvaluateResponse{Workload: g.Name, Dataflow: dfName, Arch: spec.Name, Result: NewResultJSON(res, spec)}
}

// canonicalJSON marshals with the cached flag cleared, so served and direct
// responses compare byte-for-byte.
func canonicalJSON(t *testing.T, resp *EvaluateResponse) string {
	t.Helper()
	c := *resp
	c.Cached = false
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	return string(b)
}

func TestEvaluateMatchesDirect(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}
	resp, body := postJSON(t, hs.URL+"/v1/evaluate", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got EvaluateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := directResponse(t, "edge", "attention:Bert-S", "FLAT-RGran", core.Options{})
	if gotJSON, wantJSON := canonicalJSON(t, &got), canonicalJSON(t, want); gotJSON != wantJSON {
		t.Errorf("served response differs from direct evaluation:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if got.Result.Cycles <= 0 {
		t.Errorf("cycles = %v, want > 0", got.Result.Cycles)
	}
}

// metricValue parses one un-labeled counter from Prometheus text output.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

func fetchMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(b)
}

// TestConcurrentRequestsHitRate fires 100 parallel requests over 10
// distinct design points: every response must match the sequential
// reference, and single-flight collapsing must hold the cache hit rate at
// or above 85% (exactly 10 design points are ever analyzed).
func TestConcurrentRequestsHitRate(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	opts := core.Options{SkipCapacityCheck: true, SkipPECheck: true}
	var points []EvaluateRequest
	for _, df := range []string{"Layerwise", "Uni-pipe", "FLAT-MGran", "FLAT-BGran", "FLAT-HGran", "FLAT-RGran", "Chimera", "TileFlow"} {
		points = append(points, EvaluateRequest{
			Arch: "edge", Workload: "attention:Bert-S", Dataflow: df,
			SkipCapacityCheck: true, SkipPECheck: true,
		})
	}
	points = append(points,
		EvaluateRequest{Arch: "cloud", Workload: "attention:Bert-B", Dataflow: "Layerwise", SkipCapacityCheck: true, SkipPECheck: true},
		EvaluateRequest{Arch: "cloud", Workload: "conv:CC1", Dataflow: "Fused-Layer", SkipCapacityCheck: true, SkipPECheck: true},
	)
	if len(points) != 10 {
		t.Fatalf("want 10 design points, have %d", len(points))
	}
	want := make([]string, len(points))
	for i, p := range points {
		want[i] = canonicalJSON(t, directResponse(t, p.Arch, p.Workload, p.Dataflow, opts))
	}

	const requests = 100
	got := make([]string, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, hs.URL+"/v1/evaluate", &points[i%len(points)])
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var er EvaluateResponse
			if err := json.Unmarshal(body, &er); err != nil {
				errs[i] = err
				return
			}
			got[i] = canonicalJSON(t, &er)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, points[i%len(points)].Dataflow, err)
		}
		if got[i] != want[i%len(points)] {
			t.Errorf("request %d: response differs from direct evaluation\n got %s\nwant %s", i, got[i], want[i%len(points)])
		}
	}

	metrics := fetchMetrics(t, hs.URL)
	hits := metricValue(t, metrics, "tileflow_cache_hits_total")
	misses := metricValue(t, metrics, "tileflow_cache_misses_total")
	if misses != float64(len(points)) {
		t.Errorf("misses = %v, want exactly %d (one analysis per design point)", misses, len(points))
	}
	if rate := hits / (hits + misses); rate < 0.85 {
		t.Errorf("cache hit rate = %.2f (hits=%v misses=%v), want >= 0.85", rate, hits, misses)
	}
}

// TestCanonicalKeyEquivalence: two literally different requests that
// resolve to the same design point (explicit default factors vs none)
// must share one cache entry.
func TestCanonicalKeyEquivalence(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	first := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}
	resp, body := postJSON(t, hs.URL+"/v1/evaluate", &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", resp.StatusCode, body)
	}

	spec, err := PickArch("edge")
	if err != nil {
		t.Fatal(err)
	}
	df, err := PickDataflow("FLAT-RGran", "attention:Bert-S", spec)
	if err != nil {
		t.Fatal(err)
	}
	second := first
	second.Factors = df.DefaultFactors()
	resp, body = postJSON(t, hs.URL+"/v1/evaluate", &second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Cached {
		t.Errorf("explicit-default-factors request missed the cache; canonical keys differ")
	}
}

func TestCachedResponseBytesMatchCold(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Chimera"}
	resp, cold := postJSON(t, hs.URL+"/v1/evaluate", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	resp, warm := postJSON(t, hs.URL+"/v1/evaluate", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	var coldResp, warmResp EvaluateResponse
	if err := json.Unmarshal(cold, &coldResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm, &warmResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.Cached {
		t.Errorf("first request reported cached")
	}
	if !warmResp.Cached {
		t.Errorf("second request not served from cache")
	}
	if got, want := canonicalJSON(t, &warmResp), canonicalJSON(t, &coldResp); got != want {
		t.Errorf("cached response differs from cold response:\n got %s\nwant %s", got, want)
	}
}

// TestCachedSpeedup checks the acceptance criterion directly at the
// pipeline layer: a repeated identical request must be served at least
// 10x faster than the cold evaluation.
func TestCachedSpeedup(t *testing.T) {
	s := New(Config{})
	req := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}
	ctx := context.Background()

	coldStart := time.Now()
	if _, _, err := s.evaluateOne(ctx, &req); err != nil {
		t.Fatalf("cold evaluate: %v", err)
	}
	cold := time.Since(coldStart)

	// Median of repeated hits, so one scheduler hiccup cannot fail the test.
	const warmRuns = 64
	warm := make([]time.Duration, warmRuns)
	for i := range warm {
		start := time.Now()
		resp, _, err := s.evaluateOne(ctx, &req)
		if err != nil {
			t.Fatalf("warm evaluate: %v", err)
		}
		if !resp.Cached {
			t.Fatalf("warm run %d not served from cache", i)
		}
		warm[i] = time.Since(start)
	}
	for i := range warm { // insertion sort; n is tiny
		for j := i; j > 0 && warm[j] < warm[j-1]; j-- {
			warm[j], warm[j-1] = warm[j-1], warm[j]
		}
	}
	median := warm[warmRuns/2]
	if median*10 > cold {
		t.Errorf("cached median %v vs cold %v: speedup %.1fx, want >= 10x",
			median, cold, float64(cold)/float64(median))
	}
}

func TestBatchAlignsItemsWithRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	breq := BatchRequest{Requests: []EvaluateRequest{
		{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"},
		{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "NoSuchDataflow"},
		{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise"},
	}}
	resp, body := postJSON(t, hs.URL+"/v1/evaluate/batch", &breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(bresp.Items))
	}
	if bresp.Items[0].Response == nil || bresp.Items[0].Error != "" {
		t.Errorf("item 0: want response, got error %q", bresp.Items[0].Error)
	}
	if bresp.Items[1].Response != nil || bresp.Items[1].Error == "" {
		t.Errorf("item 1: want error for unknown dataflow")
	}
	if bresp.Items[2].Response == nil {
		t.Errorf("item 2: want response, got error %q", bresp.Items[2].Error)
	}
	if bresp.Items[0].Response.Dataflow != "FLAT-RGran" || bresp.Items[2].Response.Dataflow != "Layerwise" {
		t.Errorf("batch items out of order: %q, %q",
			bresp.Items[0].Response.Dataflow, bresp.Items[2].Response.Dataflow)
	}
}

// TestBatchMatchesSingleRequests: every batch item's response or error
// equals what its own /v1/evaluate answers on a fresh server. The batch
// holds template tilings that share one structure group (the first with
// factors that do not build), notation groups where the first tiling fails
// evaluation or no tiling compiles at all, and an unknown dataflow.
func TestBatchMatchesSingleRequests(t *testing.T) {
	const (
		mmOK      = "leaf mm = op mm { m:8, n:8, k:8 }\ntile root @L2 = { m:1 } (mm)\n"
		mmRetiled = "leaf mm = op mm { m:2, n:8, k:8 }\ntile root @L2 = { m:4 } (mm)\n"
		mmShort   = "leaf mm = op mm { m:4, n:8, k:8 }\ntile root @L2 = { m:1 } (mm)\n"
		mmUpsideA = "leaf mm = op mm { m:8, n:8, k:8 }\ntile mid @L2 = { m:1 } (mm)\ntile root @L1 = { m:1 } (mid)\n"
		mmUpsideB = "leaf mm = op mm { m:8, n:8, k:8 }\ntile a @L2 = { m:1 } (mm)\ntile b @L1 = { n:1 } (a)\n"
	)
	flat := func(f map[string]int) EvaluateRequest {
		return EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran", Factors: f}
	}
	mm := func(src string) EvaluateRequest {
		return EvaluateRequest{Arch: "edge", Workload: "matmul:8x8x8", Notation: src}
	}
	breq := BatchRequest{Requests: []EvaluateRequest{
		flat(map[string]int{"t_b": 1, "t_h": 3, "t_m": 8, "sp_c": 4}),
		flat(map[string]int{"t_b": 1, "t_h": 2, "t_m": 8, "sp_c": 4}),
		flat(map[string]int{"t_b": 1, "t_h": 2, "t_m": 16, "sp_c": 4}),
		flat(map[string]int{"t_b": 1, "t_h": 1, "t_m": 8, "sp_c": 2}),
		mm(mmShort), mm(mmOK), mm(mmRetiled),
		mm(mmUpsideA), mm(mmUpsideB),
		{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "NoSuchDataflow"},
	}}
	_, hs := newTestServer(t, Config{})
	resp, body := postJSON(t, hs.URL+"/v1/evaluate/batch", &breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Items) != len(breq.Requests) {
		t.Fatalf("items = %d, want %d", len(bresp.Items), len(breq.Requests))
	}

	_, single := newTestServer(t, Config{})
	var served, failed int
	for i := range breq.Requests {
		item := bresp.Items[i]
		resp, body := postJSON(t, single.URL+"/v1/evaluate", &breq.Requests[i])
		if resp.StatusCode != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("item %d: decode error body: %v", i, err)
			}
			if item.Response != nil || item.Error != eb.Error {
				t.Errorf("item %d: batch error %q, /v1/evaluate error %q", i, item.Error, eb.Error)
			}
			failed++
			continue
		}
		var want EvaluateResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("item %d: decode: %v", i, err)
		}
		if item.Response == nil {
			t.Errorf("item %d: batch error %q, /v1/evaluate answered %s", i, item.Error, body)
			continue
		}
		if got, w := canonicalJSON(t, item.Response), canonicalJSON(t, &want); got != w {
			t.Errorf("item %d: batch response differs from /v1/evaluate:\n got %s\nwant %s", i, got, w)
		}
		served++
	}
	// Items 0, 4, 7, 8 and 9 fail; 7 and 8 fail with different messages.
	if served != 5 || failed != 5 {
		t.Errorf("served %d and failed %d items, want 5 and 5", served, failed)
	}
	if e7, e8 := bresp.Items[7].Error, bresp.Items[8].Error; e7 == "" || e7 == e8 {
		t.Errorf("uncompilable items 7 and 8 report %q and %q, want their own errors", e7, e8)
	}
}

func TestBatchLimits(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBatch: 2})
	breq := BatchRequest{Requests: make([]EvaluateRequest, 3)}
	resp, _ := postJSON(t, hs.URL+"/v1/evaluate/batch", &breq)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/v1/evaluate/batch", &BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestSearchEndpointCaches(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 3,
	}
	resp, body := postJSON(t, hs.URL+"/v1/search", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first SearchResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cycles <= 0 || first.Notation == "" || first.Result == nil {
		t.Fatalf("implausible search result: %s", body)
	}
	if first.Cached {
		t.Errorf("first search reported cached")
	}

	resp, body = postJSON(t, hs.URL+"/v1/search", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", resp.StatusCode, body)
	}
	var second SearchResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Errorf("repeated search not served from cache")
	}
	if second.Cycles != first.Cycles || second.Encoding != first.Encoding ||
		!reflect.DeepEqual(second.Factors, first.Factors) {
		t.Errorf("cached search differs: first %v/%s, second %v/%s",
			first.Cycles, first.Encoding, second.Cycles, second.Encoding)
	}
}

// TestSearchNotationEvaluates: the notation a /v1/search answer carries
// posts back to /v1/evaluate and evaluates to the search's own cycles, for
// GA winners on both workload families and both accelerators.
func TestSearchNotationEvaluates(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, archName := range []string{"edge", "cloud"} {
		for _, wl := range []string{"attention:Bert-S", "conv:CC1"} {
			sreq := SearchRequest{
				Arch: archName, Workload: wl,
				Population: 4, Generations: 2, TileRounds: 4, Seed: 3,
			}
			resp, body := postJSON(t, hs.URL+"/v1/search", &sreq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: search status %d: %s", archName, wl, resp.StatusCode, body)
			}
			var found SearchResponse
			if err := json.Unmarshal(body, &found); err != nil {
				t.Fatal(err)
			}
			ereq := EvaluateRequest{Arch: archName, Workload: wl, Notation: found.Notation}
			resp, body = postJSON(t, hs.URL+"/v1/evaluate", &ereq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: evaluating the search's notation: status %d: %s", archName, wl, resp.StatusCode, body)
				continue
			}
			var got EvaluateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Result.Cycles != found.Cycles {
				t.Errorf("%s %s: notation evaluates to %v cycles, search reported %v", archName, wl, got.Result.Cycles, found.Cycles)
			}
		}
	}
}

// TestSearchSharedCacheIsolation: two different search requests through
// one server share the service cache; the second must not be poisoned by
// the first's GA fitness entries. Bert-S and Bert-B have equal op counts,
// so with the same seed the two searches visit identical encodings — a
// fitness cache keyed by encoding alone would hand the second search the
// first one's results wholesale.
func TestSearchSharedCacheIsolation(t *testing.T) {
	reqS := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 3,
	}
	reqB := reqS
	reqB.Workload = "attention:Bert-B"

	// Reference: Bert-B search on a fresh server, nothing else cached.
	_, fresh := newTestServer(t, Config{})
	resp, body := postJSON(t, fresh.URL+"/v1/search", &reqB)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: status %d: %s", resp.StatusCode, body)
	}
	var want SearchResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	// Same Bert-B search after a Bert-S search warmed the shared cache.
	_, hs := newTestServer(t, Config{})
	if resp, body := postJSON(t, hs.URL+"/v1/search", &reqS); resp.StatusCode != http.StatusOK {
		t.Fatalf("Bert-S search: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, hs.URL+"/v1/search", &reqB)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Bert-B search: status %d: %s", resp.StatusCode, body)
	}
	var got SearchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Errorf("distinct search request reported cached")
	}
	if got.Cycles != want.Cycles || got.Encoding != want.Encoding {
		t.Errorf("Bert-B search poisoned by prior Bert-S search: %v/%s, want %v/%s",
			got.Cycles, got.Encoding, want.Cycles, want.Encoding)
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequest(fmt.Errorf("bad")), http.StatusBadRequest},
		{unprocessable(fmt.Errorf("no mapping")), http.StatusUnprocessableEntity},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosedRequest},
		{&core.CapacityError{Level: 1, LevelName: "L1"}, http.StatusUnprocessableEntity},
		{fmt.Errorf("evaluate: %w", core.ErrInfeasible), http.StatusUnprocessableEntity},
		{fmt.Errorf("evaluate: %w", core.ErrInvalidMapping), http.StatusBadRequest},
		{fmt.Errorf("template exploded"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	req := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 3,
		NoCache: true,
	}
	var got []SearchResponse
	for i := 0; i < 2; i++ {
		_, hs := newTestServer(t, Config{})
		resp, body := postJSON(t, hs.URL+"/v1/search", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		got = append(got, sr)
	}
	if got[0].Cycles != got[1].Cycles || got[0].Encoding != got[1].Encoding {
		t.Errorf("same seed, different outcome across fresh servers: %v/%s vs %v/%s",
			got[0].Cycles, got[0].Encoding, got[1].Cycles, got[1].Encoding)
	}
}

func TestEvaluateTimeout(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := EvaluateRequest{
		Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran",
		Tune: 20000, TimeoutMS: 1,
	}
	resp, body := postJSON(t, hs.URL+"/v1/evaluate", &req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  EvaluateRequest
	}{
		{"missing arch", EvaluateRequest{Workload: "attention:Bert-S", Dataflow: "Layerwise"}},
		{"missing workload", EvaluateRequest{Arch: "edge", Dataflow: "Layerwise"}},
		{"missing mapping", EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S"}},
		{"unknown arch", EvaluateRequest{Arch: "warp-core", Workload: "attention:Bert-S", Dataflow: "Layerwise"}},
		{"factors with tune", EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise", Tune: 5, Factors: map[string]int{"X": 2}}},
		{"notation with dataflow", EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise", Notation: "T(512,L2) QK"}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, hs.URL+"/v1/evaluate", &tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body: %s", tc.name, resp.StatusCode, body)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz: status %d body %+v", resp.StatusCode, h)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	postJSON(t, hs.URL+"/v1/evaluate", &EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise"})
	metrics := fetchMetrics(t, hs.URL)
	for _, want := range []string{
		`tileflow_requests_total{endpoint="evaluate"} 1`,
		"# TYPE tileflow_cache_hits_total counter",
		"# TYPE tileflow_evaluate_latency_seconds summary",
		"tileflow_evaluate_latency_seconds_count 1",
		"tileflow_worker_slots",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q:\n%s", want, metrics)
		}
	}
}

func TestRequestKeyNormalization(t *testing.T) {
	a := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise", TimeoutMS: 5000}
	b := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Layerwise", NoCache: true}
	ka, oka := requestKey(&a)
	kb, okb := requestKey(&b)
	if !oka || !okb {
		t.Fatal("requestKey failed")
	}
	if ka != kb {
		t.Errorf("timeout_ms/no_cache must not change the request key:\n%s\n%s", ka, kb)
	}
	c := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Uni-pipe"}
	if kc, _ := requestKey(&c); kc == ka {
		t.Errorf("distinct design points share a request key: %s", kc)
	}
}

// TestRetileMatchesDirect: evaluate requests that differ only in tiling
// factors each miss the result cache, and every response matches a direct
// one-shot core.Evaluate of that tiling.
func TestRetileMatchesDirect(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	spec, err := PickArch("edge")
	if err != nil {
		t.Fatal(err)
	}
	df, err := PickDataflow("FLAT-RGran", "attention:Bert-S", spec)
	if err != nil {
		t.Fatal(err)
	}

	variants := []map[string]int{df.DefaultFactors()}
	for _, fs := range df.Factors() {
		if len(variants) >= 4 {
			break
		}
		for _, c := range fs.Choices() {
			f := df.DefaultFactors()
			if f[fs.Key] == c {
				continue
			}
			f[fs.Key] = c
			variants = append(variants, f)
			break
		}
	}
	if len(variants) < 3 {
		t.Fatalf("only %d tiling variants derived", len(variants))
	}

	evaluated := 0
	for _, f := range variants {
		root, err := df.Build(f)
		if err != nil {
			continue
		}
		want, wantErr := core.Evaluate(root, df.Graph(), spec, core.Options{})
		req := EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran", Factors: f}
		resp, _, err := s.evaluateOne(ctx, &req)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("factors %v: served OK, direct evaluation failed: %v", f, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("factors %v: %v", f, err)
		}
		if resp.Cached {
			t.Fatalf("factors %v: distinct tiling served from the result cache", f)
		}
		direct := &EvaluateResponse{Workload: df.Graph().Name, Dataflow: "FLAT-RGran", Arch: spec.Name, Result: NewResultJSON(want, spec)}
		if got, w := canonicalJSON(t, resp), canonicalJSON(t, direct); got != w {
			t.Errorf("factors %v: served response differs from direct evaluation:\n got %s\nwant %s", f, got, w)
		}
		evaluated++
	}
	if evaluated < 2 {
		t.Fatalf("only %d variants evaluated; want at least 2 distinct tilings", evaluated)
	}
}
