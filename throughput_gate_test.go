package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// TestMapperThroughputGate is the TILEFLOW_BENCH-gated acceptance gate of
// the batched/incremental evaluation refactor: the mapper's end-to-end
// evaluation throughput on the canonical design point (TileFlow attention
// template on ViT/16-B, MCTS Rounds=100) must reach at least 3x the PR2
// compiled-path baseline, with zero steady-state heap allocations per
// evaluation. Measurements are written as a JSON report
// (TILEFLOW_MAPPER_BENCH_OUT, default BENCH_PR7.json) for the CI artifact.
func TestMapperThroughputGate(t *testing.T) {
	if os.Getenv("TILEFLOW_BENCH") != "1" {
		t.Skip("set TILEFLOW_BENCH=1 to run the timing assertion")
	}
	// PR2's measured mapper throughput on the same design point; the gate
	// and the baseline live in BENCH_PR2.json.
	const baselineEvalsPerSec = 19438.0
	const requiredSpeedup = 3.0

	shape, ok := workload.AttentionShapeByName("ViT/16-B")
	if !ok {
		t.Fatal("ViT/16-B shape missing")
	}
	spec := arch.Edge()
	const rounds = 100
	runSearch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			df := dataflows.TileFlowAttention(shape, spec)
			s := &mapper.TileSearch{Dataflow: df, Spec: spec, Rounds: rounds, Seed: int64(i)}
			if best, _ := s.Run(); best == nil {
				t.Fatal("no mapping found")
			}
		}
		return time.Since(start)
	}
	runSearch(50) // warm-up
	const runs = 1500
	elapsed := runSearch(runs)
	evalsPerSec := float64(runs) * (rounds + 1) / elapsed.Seconds()
	speedup := evalsPerSec / baselineEvalsPerSec
	t.Logf("mapper throughput: %.0f evals/sec (%.2fx the PR2 baseline of %.0f)",
		evalsPerSec, speedup, baselineEvalsPerSec)
	if speedup < requiredSpeedup {
		t.Errorf("mapper throughput %.0f evals/sec is only %.2fx the PR2 baseline; want >= %.1fx (%.0f evals/sec)",
			evalsPerSec, speedup, requiredSpeedup, requiredSpeedup*baselineEvalsPerSec)
	}

	// Steady-state allocation count of the arena evaluator on the same
	// structure: the throughput rests on this being zero.
	df := dataflows.TileFlowAttention(shape, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(root, df.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	scratch := prog.NewScratch()
	ctx := context.Background()
	if _, err := prog.EvaluateInto(ctx, scratch, core.Options{}); err != nil {
		t.Fatal(err)
	}
	steadyAllocs := testing.AllocsPerRun(200, func() {
		if _, err := prog.EvaluateInto(ctx, scratch, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if steadyAllocs != 0 {
		t.Errorf("steady-state EvaluateInto allocates %v objects per run, want 0", steadyAllocs)
	}

	out := os.Getenv("TILEFLOW_MAPPER_BENCH_OUT")
	if out == "" {
		out = "BENCH_PR7.json"
	}
	report := map[string]any{
		"description": "Batched + incremental evaluation engine throughput (PR 7). Mapper: TileFlow attention template on ViT/16-B, MCTS Rounds=100 (101 evaluations per run); every MCTS round, the default-factors seed included, evaluates through Program.EvaluateDelta against one persistent DeltaState, and the steady-state arena evaluator allocates nothing. Baseline = PR2's compiled WithTiling path (BENCH_PR2.json).",
		"cpu":         gateCPUModel(),
		"go_bench_cmd": "TILEFLOW_BENCH=1 go test . -run TestMapperThroughputGate -count=1 -v; " +
			"go test . -run '^$' -bench 'BenchmarkMapperThroughput' -benchtime 1500x",
		"num_cpu": runtime.NumCPU(),
		"mapper": map[string]any{
			"evals_per_sec":                gateRound3(evalsPerSec),
			"baseline_pr2_evals_per_sec":   baselineEvalsPerSec,
			"speedup_vs_pr2":               gateRound3(speedup),
			"steady_state_allocs_per_eval": steadyAllocs,
			"identical_best_point_test":    "internal/mapper TestTileSearchProgramReuseMatchesCold",
			"bit_identity_differential":    "internal/conformance TestConformance (batch + delta routes)",
		},
		"speedup_gate": map[string]any{
			"test":         "TestMapperThroughputGate (TILEFLOW_BENCH=1)",
			"required_min": requiredSpeedup,
			"measured":     gateRound3(speedup),
		},
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

func gateRound3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }

// gateCPUModel best-effort reads the CPU model for the report.
func gateCPUModel() string {
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
