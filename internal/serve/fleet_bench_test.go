package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
)

// benchFleetSearch returns the i-th job of the fleet benchmark. Only
// uniqueConfigs distinct design points exist, so each is submitted twice.
const benchUniqueConfigs = 6

func benchFleetSearch(i int) SearchRequest {
	return SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 3, TileRounds: 10, TopK: 2,
		Seed: int64(2000 + i%benchUniqueConfigs),
	}
}

// runFleetThroughput stands up one coordinator-only node plus workerNodes
// fleet workers, pushes n jobs through the coordinator's API, and waits for
// all of them. It returns the wall time and the coordinator's protocol
// counters.
func runFleetThroughput(tb testing.TB, workerNodes, n int) (time.Duration, fleet.CoordinatorStats) {
	tb.Helper()
	coord, err := Open(Config{Workers: 1, JobWorkers: -1, LeaseTTL: time.Minute})
	if err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	workers := make([]*Server, workerNodes)
	for i := range workers {
		w, err := Open(Config{
			Workers:        1, // serial evaluation: measure node-level scaling
			JobWorkers:     1,
			Coordinator:    hs.URL,
			FleetNode:      fmt.Sprintf("bench-w%d", i),
			FleetPoll:      2 * time.Millisecond,
			FleetHeartbeat: 50 * time.Millisecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		workers[i] = w
	}

	start := time.Now()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		req := benchFleetSearch(i)
		resp, body := postJSON(tb, hs.URL+"/v1/jobs/search", &req)
		if resp.StatusCode != 202 {
			tb.Fatalf("submit status %d: %s", resp.StatusCode, body)
		}
		var j JobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			tb.Fatal(err)
		}
		ids[i] = j.ID
	}
	deadline := time.Now().Add(10 * time.Minute)
	for _, id := range ids {
		j := followJob(tb, hs.URL, id, deadline, func(j *JobJSON) bool {
			return j.State == "done" || j.State == "failed" || j.State == "cancelled"
		})
		if j.State != "done" {
			tb.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
	}
	elapsed := time.Since(start)
	stats := coord.coord.Stats()

	for _, w := range workers {
		closeNode(tb, w)
	}
	closeNode(tb, coord)
	return elapsed, stats
}

// TestFleetThroughput is the TILEFLOW_BENCH-gated fleet benchmark: the same
// fleet of jobs through 3 worker nodes vs 1, every claim, checkpoint and
// completion crossing the HTTP peer protocol. The measurements land in
// BENCH_PR6.json for the CI artifact.
func TestFleetThroughput(t *testing.T) {
	if os.Getenv("TILEFLOW_BENCH") != "1" {
		t.Skip("set TILEFLOW_BENCH=1 to run the timing assertion")
	}
	const fleet = 12
	serial, _ := runFleetThroughput(t, 1, fleet)
	multi, stats := runFleetThroughput(t, 3, fleet)
	speedup := serial.Seconds() / multi.Seconds()
	t.Logf("fleet of %d jobs (%d unique): 1 node %s, 3 nodes %s (%.2fx)",
		fleet, benchUniqueConfigs, serial, multi, speedup)
	// On one core three nodes just timeslice; the scaling assertion only
	// means something with real parallel hardware.
	if runtime.NumCPU() >= 2 && speedup < 1.2 {
		t.Errorf("3 worker nodes only %.2fx faster than 1; the fleet is not delivering concurrency", speedup)
	}

	out := os.Getenv("TILEFLOW_FLEET_BENCH_OUT")
	if out == "" {
		out = "BENCH_PR6.json"
	}
	report := map[string]any{
		"description": "Distributed search fleet throughput. A fleet of small search jobs (attention:Bert-S, pop=4 gens=3 rounds=10, 6 unique design points x2) submitted to a coordinator-only node and executed by fleet worker nodes over the HTTP peer protocol: lease claims, heartbeats, and per-generation checkpoint shipping. Serial = 1 worker node, fleet = 3 worker nodes, same jobs.",
		"cpu":         cpuModel(),
		"go_bench_cmd": "TILEFLOW_BENCH=1 go test ./internal/serve/ -run TestFleetThroughput -count=1 -v; " +
			"go test ./internal/serve/ -run '^$' -bench BenchmarkFleetThroughput -benchtime 2x",
		"num_cpu":            runtime.NumCPU(),
		"fleet_jobs":         fleet,
		"unique_configs":     benchUniqueConfigs,
		"serial_seconds":     round3(serial.Seconds()),
		"fleet_seconds":      round3(multi.Seconds()),
		"speedup_3_nodes":    round3(speedup),
		"fleet_jobs_per_sec": round3(fleet / multi.Seconds()),
		"fleet_claims":       stats.Claims,
		"fleet_checkpoints":  stats.Checkpoints,
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// BenchmarkFleetThroughput drives the full fleet pipeline — coordinator,
// three worker nodes, every byte over HTTP — as a standard benchmark.
func BenchmarkFleetThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elapsed, _ := runFleetThroughput(b, 3, 8)
		b.ReportMetric(8/elapsed.Seconds(), "jobs/s")
	}
}
