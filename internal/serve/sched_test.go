package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/mapper"
)

// schedJobSet is the mixed-class, multi-tenant workload the determinism
// differential runs on both dequeue policies: every job has its own seed,
// so no two results can collide by accident.
func schedJobSet() []SearchRequest {
	classes := []string{"interactive", "batch", "bulk"}
	reqs := make([]SearchRequest, 6)
	for i := range reqs {
		reqs[i] = SearchRequest{
			Arch: "edge", Workload: "attention:Bert-S",
			Population: 3, Generations: 1, TileRounds: 3, TopK: 2, Seed: int64(i + 1),
			Tenant: fmt.Sprintf("t%d", i%2),
			Class:  classes[i%3],
		}
	}
	return reqs
}

// TestScheduledVsFIFOByteIdentical is the scheduling-independence gate:
// with priority classes active and a per-tenant running quota forcing
// deferrals, every job's result must be byte-identical to the same job
// executed under plain FIFO dequeue. Scheduling may reorder work; it may
// never change what any job computes. Run under -race, this also
// exercises the picker/claim/quota paths for data races.
func TestScheduledVsFIFOByteIdentical(t *testing.T) {
	reqs := schedJobSet()
	run := func(cfg Config, fifo bool) map[int]json.RawMessage {
		s, hs := newTestServer(t, cfg)
		if fifo {
			// Plain FIFO dequeue: no picker; admission quotas still apply.
			s.store.SetPicker(nil)
		}
		ids := make([]string, len(reqs))
		for i := range reqs {
			ids[i] = submitJob(t, hs.URL, &reqs[i]).ID
		}
		out := map[int]json.RawMessage{}
		for i, id := range ids {
			done := waitJob(t, hs.URL, id, func(j *JobJSON) bool { return j.State == "done" })
			out[i] = done.Result
		}
		return out
	}

	sched := run(Config{JobWorkers: 2, TenantMaxRunning: 1, SchedSeed: 7}, false)
	fifo := run(Config{JobWorkers: 2}, true)
	for i := range reqs {
		if !bytes.Equal(sched[i], fifo[i]) {
			t.Errorf("job %d result differs between scheduled and FIFO dequeue:\nfifo  %s\nsched %s",
				i, fifo[i], sched[i])
		}
	}
}

// TestTenantQuotaCoded429 drives the admission quota end to end over
// HTTP: the tenant at its active limit gets a 429 carrying the stable
// machine code, other tenants are unaffected, and — because tenant and
// class persist on the job records — the same refusal holds after a
// restart over the durable store.
func TestTenantQuotaCoded429(t *testing.T) {
	dir := t.TempDir()
	// JobWorkers: -1 keeps everything queued, so "active" is fully under
	// the test's control.
	cfg := Config{DataDir: dir, JobWorkers: -1, TenantMaxActive: 2}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())

	req := smallSearch()
	req.Tenant = "alice"
	req.Class = "interactive"
	submitJob(t, hs1.URL, &req)
	submitJob(t, hs1.URL, &req)

	resp, body := postJSON(t, hs1.URL+"/v1/jobs/search", &req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d body %s", resp.StatusCode, body)
	}
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "tenant_quota_exhausted" || !strings.Contains(eb.Error, `"alice"`) {
		t.Fatalf("quota envelope: %s", body)
	}

	// Another tenant still gets in.
	other := req
	other.Tenant = "bob"
	submitJob(t, hs1.URL, &other)

	// Restart: admission state is derived from the persisted job records,
	// so alice is still at quota with zero extra bookkeeping.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	resp, body = postJSON(t, hs2.URL+"/v1/jobs/search", &req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-restart submission: status %d body %s", resp.StatusCode, body)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJobSubmitRejectsBadClass: an unknown priority class is a 400 at
// submission, not a failed job later.
func TestJobSubmitRejectsBadClass(t *testing.T) {
	_, hs := newTestServer(t, Config{JobWorkers: -1})
	req := smallSearch()
	req.Class = "platinum"
	resp, body := postJSON(t, hs.URL+"/v1/jobs/search", &req)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "platinum") {
		t.Fatalf("bad class: status %d body %s", resp.StatusCode, body)
	}
}

// TestWarmStartAcrossJobs: a finished search registers in the warm
// library under its structure-only key, and a later warm_start job over
// a shape variant of the same structure finds and uses it. The job's
// snapshot carries tenant/class/attempt metadata through the API.
func TestWarmStartAcrossJobs(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	donor := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 1,
		Tenant: "alice", Class: "batch", MaxAttempts: 3,
	}
	dj := submitJob(t, hs.URL, &donor)
	if dj.Tenant != "alice" || dj.Class != "batch" || dj.MaxAttempts != 3 {
		t.Fatalf("scheduling attributes lost in snapshot: %+v", dj)
	}
	waitJob(t, hs.URL, dj.ID, func(j *JobJSON) bool { return j.State == "done" })
	if st := s.warm.Stats(); st.Puts == 0 {
		t.Fatalf("donor did not register in the warm library: %+v", st)
	}

	// Structure-identical, shape-different target.
	target := SearchRequest{
		Arch: "edge", Workload: "attention:Bert-L",
		Population: 4, Generations: 2, TileRounds: 4, TopK: 2, Seed: 2,
		WarmStart: true,
	}
	tj := submitJob(t, hs.URL, &target)
	done := waitJob(t, hs.URL, tj.ID, func(j *JobJSON) bool { return j.State == "done" })
	if done.Error != "" {
		t.Fatalf("warm-started job failed: %s", done.Error)
	}
	if st := s.warm.Stats(); st.Hits == 0 {
		t.Fatalf("warm_start job never consulted the library: %+v", st)
	}
}

// TestFleetNodesEndpoint: the inventory distinguishes a node that polls
// an empty queue (idle: recent heartbeat, no leases) from one that holds
// a lease (busy), and /metrics carries the per-node heartbeat-age gauge.
func TestFleetNodesEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{JobWorkers: -1})

	var nodes struct {
		Nodes []struct {
			Node       string  `json:"node"`
			AgeSeconds float64 `json:"age_seconds"`
			Leases     int     `json:"leases_held"`
			State      string  `json:"state"`
		} `json:"nodes"`
	}
	getJSON(t, hs.URL+"/v1/fleet/nodes", &nodes)
	if len(nodes.Nodes) != 0 {
		t.Fatalf("fresh coordinator knows nodes: %+v", nodes.Nodes)
	}

	// An empty-queue claim poll is still node contact: w1 shows up idle.
	resp, body := postJSON(t, hs.URL+"/v1/fleet/claim", map[string]string{"node": "w1"})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim on empty queue: status %d body %s", resp.StatusCode, body)
	}
	// With a job queued, w2's claim grants a lease: busy.
	req := smallSearch()
	submitJob(t, hs.URL, &req)
	resp, body = postJSON(t, hs.URL+"/v1/fleet/claim", map[string]string{"node": "w2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim with queued job: status %d body %s", resp.StatusCode, body)
	}

	getJSON(t, hs.URL+"/v1/fleet/nodes", &nodes)
	states := map[string]string{}
	leases := map[string]int{}
	for _, n := range nodes.Nodes {
		states[n.Node] = n.State
		leases[n.Node] = n.Leases
	}
	if states["w1"] != "idle" || states["w2"] != "busy" || leases["w2"] != 1 {
		t.Fatalf("inventory: %+v", nodes.Nodes)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(mb)
	for _, want := range []string{
		`tileflow_fleet_node_heartbeat_age_seconds{node="w1",state="idle"}`,
		`tileflow_fleet_node_heartbeat_age_seconds{node="w2",state="busy"}`,
		`tileflow_fleet_node_leases_held{node="w2"} 1`,
		"tileflow_sched_picks_total{class=\"batch\"}",
		"tileflow_jobs_poisoned_total 0",
		"tileflow_warmstart_entries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSchedulerFairness is the starvation gate, judged by claim order:
// tenant "flood" queues a bulk sweep of 100 searches over HTTP, then
// tenant "alice" queues 10 interactive ones behind it. Every job is queued
// before the first claim (the node takes submissions without running them,
// then restarts over its data directory with two job workers), and a
// ticking clock stamps each claim in order. FIFO dequeue would start the
// interactive jobs last; weighted-fair dequeue must start every one of
// them before the median bulk job. perfbench's explore workload measures
// the waits in time (sched.interactive_wait_p90_ms,
// sched.bulk_wait_p50_ms).
func TestSchedulerFairness(t *testing.T) {
	const bulkJobs, interJobs = 100, 10
	var tick atomic.Int64
	clock := func() time.Time { return time.Unix(0, tick.Add(1)) }
	dir := t.TempDir()
	submitter, err := Open(Config{DataDir: dir, JobWorkers: -1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(submitter.Handler())
	// Distinct seeds keep the search cache from collapsing the sweep into
	// one evaluation.
	var ids []string
	submit := func(n, seedBase int, tenant, class string) {
		for i := 0; i < n; i++ {
			req := SearchRequest{
				Arch: "edge", Workload: "attention:Bert-S",
				Population: 4, Generations: 2, TileRounds: 20, TopK: 2,
				Seed:   int64(seedBase + i),
				Tenant: tenant, Class: class,
			}
			ids = append(ids, submitJob(t, hs.URL, &req).ID)
		}
	}
	submit(bulkJobs, 1, "flood", "bulk")
	submit(interJobs, 1001, "alice", "interactive")
	hs.Close()
	closeNode(t, submitter)

	s, err := Open(Config{DataDir: dir, Workers: 1, JobWorkers: 2, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	hs = httptest.NewServer(s.Handler())
	defer closeNode(t, s)
	defer hs.Close()
	done := make([]*JobJSON, len(ids))
	for i, id := range ids {
		done[i] = waitJob(t, hs.URL, id, func(j *JobJSON) bool { return j.State == "done" })
	}
	sort.Slice(done, func(a, b int) bool { return done[a].StartedAt.Before(*done[b].StartedAt) })
	bulkFirst, interLeft := 0, interJobs
	for _, j := range done {
		if j.Class == "interactive" {
			if interLeft--; interLeft == 0 {
				break
			}
		} else {
			bulkFirst++
		}
	}
	t.Logf("the last of %d interactive jobs started after %d of %d bulk jobs", interJobs, bulkFirst, bulkJobs)
	if 2*bulkFirst >= bulkJobs {
		t.Errorf("%d of %d bulk jobs started before the last interactive one: the bulk sweep starves interactive", bulkFirst, bulkJobs)
	}
}

// TestWarmStartGenerations: seeding a Bert-L search from a finished
// Bert-S donor (structurally identical, different tensor shapes) must
// reach the better of the two runs' final best qualities in no more
// generations than the cold run — generations-to-target with min(cold
// final, warm final) as the target. One evaluation worker and fixed seeds
// make both runs deterministic.
func TestWarmStartGenerations(t *testing.T) {
	spec := arch.Edge()
	donorG, err := PickGraph("attention:Bert-S")
	if err != nil {
		t.Fatal(err)
	}
	targetG, err := PickGraph("attention:Bert-L")
	if err != nil {
		t.Fatal(err)
	}

	var donorCP *mapper.Checkpoint
	donor := &mapper.TreeSearch{
		G: donorG, Spec: spec,
		Population: 8, Generations: 6, TileRounds: 20, TopK: 2, Parallel: 1, Seed: 11,
		Progress: func(ev mapper.ProgressEvent) { donorCP = ev.Checkpoint },
	}
	if res := donor.Run(); res.Best == nil {
		t.Fatal("donor search found nothing feasible")
	}
	if donorCP == nil {
		t.Fatal("donor produced no checkpoint")
	}

	// A small population over the large Bert encoding space makes the
	// cold run actually climb across generations instead of lucking into
	// its best in the initial draw; the warm run starts from the donor's
	// tuned encodings and should already be at or past the target early.
	newTarget := func() *mapper.TreeSearch {
		return &mapper.TreeSearch{
			G: targetG, Spec: spec,
			Population: 4, Generations: 8, TileRounds: 20, TopK: 2, Parallel: 1, Seed: 12,
		}
	}
	// gensToTarget: first generation whose best-so-far is at or below the
	// target (len+1 = never reached within budget).
	gensToTarget := func(trace []float64, target float64) int {
		for i, c := range trace {
			if c <= target*(1+1e-9) {
				return i + 1
			}
		}
		return len(trace) + 1
	}

	cold := newTarget()
	coldRes := cold.Run()
	if coldRes.Best == nil {
		t.Fatal("cold search found nothing feasible")
	}
	warm := newTarget()
	seeds := warm.WarmStart(donorCP)
	if seeds == 0 {
		t.Fatal("warm start installed no seeds")
	}
	warmRes := warm.Run()
	if warmRes.Best == nil {
		t.Fatal("warm search found nothing feasible")
	}

	// Target = the better final best of the two runs: the quality the
	// search space demonstrably offers under this budget. gens==budget+1
	// means the run never got there at all.
	target := coldRes.Best.Cycles
	if warmRes.Best.Cycles < target {
		target = warmRes.Best.Cycles
	}
	coldGens := gensToTarget(coldRes.Trace, target)
	warmGens := gensToTarget(warmRes.Trace, target)
	t.Logf("target %.4g cycles: cold best %.4g reaches it in %d/%d generations, warm (%d seeds) best %.4g in %d",
		target, coldRes.Best.Cycles, coldGens, len(coldRes.Trace), seeds, warmRes.Best.Cycles, warmGens)
	if warmGens > coldGens {
		t.Errorf("warm start needed %d generations to reach %.4g cycles; cold needed %d", warmGens, target, coldGens)
	}

}
