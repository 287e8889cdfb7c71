package core_test

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// benchDesignPoint is the canonical benchmark design point (matching the
// repo-root BenchmarkEvaluate): FLAT-RGran over Bert-S attention on the
// Edge accelerator, default factors.
func benchDesignPoint(tb testing.TB) (*core.Node, *workload.Graph, *arch.Spec) {
	tb.Helper()
	shape, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		tb.Fatal("attention shape Bert-S not found")
	}
	spec := arch.Edge()
	df := dataflows.FLATRGran(shape, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		tb.Fatal(err)
	}
	return root, df.Graph(), spec
}

// BenchmarkEvaluateCold is the one-shot pipeline: Compile + Evaluate per
// call, what core.Evaluate costs a caller that never reuses structure.
func BenchmarkEvaluateCold(b *testing.B) {
	root, g, spec := benchDesignPoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(root, g, spec, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCompiled is the hot half of the pipeline: the Program
// is compiled once outside the loop and only Evaluate runs per call — the
// mapper's per-rollout cost.
func BenchmarkEvaluateCompiled(b *testing.B) {
	root, g, spec := benchDesignPoint(b)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Evaluate(ctx, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRebind adds the WithTiling re-bind to the compiled
// path: what a mapper pays per candidate when every rollout carries a
// different tiling of one structure.
func BenchmarkEvaluateRebind(b *testing.B) {
	root, g, spec := benchDesignPoint(b)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		b.Fatal(err)
	}
	clone := root.Clone()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := prog.WithTiling(clone)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Evaluate(ctx, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDelta is the MCTS's per-round evaluation: one DeltaState
// walks a seeded chain of tilings in which each step changes one factor of
// the previous, so most of the tree replays from the cache. Infeasible
// steps (PE budget, capacity) stay in the chain, as they do in a search.
func BenchmarkEvaluateDelta(b *testing.B) {
	_, tilings := perturbedFactorWalk(b, 1601, 256)
	root, g, spec := benchDesignPoint(b)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		b.Fatal(err)
	}
	d := prog.NewDelta(core.Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := prog.EvaluateDelta(ctx, d, tilings[i%len(tilings)], core.Options{})
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			b.Fatal(err)
		}
	}
}

// TestCompiledFasterThanCold asserts the pipeline's speedup contract —
// compiled re-evaluation at least 3x faster than the one-shot path on the
// canonical attention design point. Timing assertions are flaky on loaded
// CI machines, so the test only runs when TILEFLOW_BENCH=1.
func TestCompiledFasterThanCold(t *testing.T) {
	if os.Getenv("TILEFLOW_BENCH") != "1" {
		t.Skip("set TILEFLOW_BENCH=1 to run the timing assertion")
	}
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const rounds = 300
	// Warm up both paths, then interleave measurements so CPU frequency
	// drift hits both equally.
	for i := 0; i < 20; i++ {
		if _, err := core.Evaluate(root, g, spec, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Evaluate(ctx, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	var cold, compiled time.Duration
	for i := 0; i < rounds; i++ {
		s := time.Now()
		if _, err := core.Evaluate(root, g, spec, core.Options{}); err != nil {
			t.Fatal(err)
		}
		cold += time.Since(s)
		s = time.Now()
		if _, err := prog.Evaluate(ctx, core.Options{}); err != nil {
			t.Fatal(err)
		}
		compiled += time.Since(s)
	}
	ratio := float64(cold) / float64(compiled)
	t.Logf("cold %v/op, compiled %v/op, speedup %.2fx",
		cold/rounds, compiled/rounds, ratio)
	if ratio < 3 {
		t.Errorf("compiled path only %.2fx faster than cold, want >= 3x", ratio)
	}
}
