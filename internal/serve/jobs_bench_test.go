package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchSearch returns a small distinct search per index, so the shared
// caches cannot collapse the fleet into one computation.
func benchSearch(i int) SearchRequest {
	return SearchRequest{
		Arch: "edge", Workload: "attention:Bert-S",
		Population: 4, Generations: 3, TileRounds: 10, TopK: 2,
		Seed: int64(1000 + i),
	}
}

// runJobFleet submits n jobs through the HTTP API and waits for all of
// them to finish, returning the wall time. Evaluation workers are pinned
// to 1 so each search runs serially and the measurement isolates
// job-level concurrency (a production server parallelizes both).
func runJobFleet(tb testing.TB, workers, n int) time.Duration {
	tb.Helper()
	s := New(Config{Workers: 1, JobWorkers: workers})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	start := time.Now()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		req := benchSearch(i)
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
	return time.Since(start)
}

// BenchmarkJobsThroughput drives the full async pipeline — HTTP submit,
// durable store (memory mode), worker pool, checkpoint persistence per
// generation — with 4 job workers.
func BenchmarkJobsThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		elapsed := runJobFleet(b, 4, 8)
		b.ReportMetric(8/elapsed.Seconds(), "jobs/s")
	}
}

// TestJobsThroughput is the TILEFLOW_BENCH-gated concurrent-jobs
// benchmark: a fleet of distinct search jobs through 4 workers must beat
// the same fleet through 1 worker, and the measurements are written as a
// JSON report (TILEFLOW_BENCH_OUT, default BENCH_PR5.json) for the CI
// artifact.
func TestJobsThroughput(t *testing.T) {
	if os.Getenv("TILEFLOW_BENCH") != "1" {
		t.Skip("set TILEFLOW_BENCH=1 to run the timing assertion")
	}
	const fleet = 12
	serial := runJobFleet(t, 1, fleet)
	concurrent := runJobFleet(t, 4, fleet)
	speedup := serial.Seconds() / concurrent.Seconds()
	t.Logf("fleet of %d jobs: serial %s, 4 workers %s (%.2fx, %.1f jobs/s)",
		fleet, serial, concurrent, speedup, fleet/concurrent.Seconds())
	// On one core, job concurrency cannot buy wall clock; the speedup
	// assertion only means something with real parallel hardware.
	if runtime.NumCPU() >= 2 && speedup < 1.2 {
		t.Errorf("4 job workers only %.2fx faster than 1; the pool is not delivering concurrency", speedup)
	}

	out := os.Getenv("TILEFLOW_BENCH_OUT")
	if out == "" {
		out = "BENCH_PR5.json"
	}
	report := map[string]any{
		"description": "Async search-job subsystem throughput (PR 5). A fleet of distinct small searches (attention:Bert-S, pop=4 gens=3 rounds=10) submitted via POST /v1/jobs/search and driven to completion, including per-generation checkpoint persistence. Serial = 1 job worker, concurrent = 4 job workers, same fleet.",
		"cpu":         cpuModel(),
		"go_bench_cmd": "TILEFLOW_BENCH=1 go test ./internal/serve/ -run TestJobsThroughput -count=1 -v; " +
			"go test ./internal/serve/ -run '^$' -bench BenchmarkJobsThroughput -benchtime 2x",
		"num_cpu":                 runtime.NumCPU(),
		"fleet_jobs":              fleet,
		"serial_seconds":          round3(serial.Seconds()),
		"concurrent_seconds":      round3(concurrent.Seconds()),
		"speedup_4_workers":       round3(speedup),
		"concurrent_jobs_per_sec": round3(fleet / concurrent.Seconds()),
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

func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }

// cpuModel best-effort reads the CPU model for the report.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, after, ok := strings.Cut(line, ":"); ok {
					return strings.TrimSpace(after)
				}
			}
		}
	}
	return fmt.Sprintf("%s/%s (%d cores)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
