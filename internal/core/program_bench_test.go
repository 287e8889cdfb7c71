package core_test

import (
	"context"
	"errors"
	"testing"

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

// TestCompiledPathDoesNotRecompile pins the pipeline's contract in
// counts: once a Program exists, re-evaluating it, re-binding it to other
// tilings of the structure and walking those tilings through a DeltaState
// or a batch never calls Compile again. The speed this buys is measured by
// perfbench (serve.retile_p50_us against serve.cold_p50_ms, and
// core.compile_us); the allocation budgets of the same calls live in
// TestEvaluateIntoZeroAlloc and TestWithTilingAllocs.
func TestCompiledPathDoesNotRecompile(t *testing.T) {
	root, g, spec := benchDesignPoint(t)
	prog, err := core.Compile(root, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, tilings := perturbedFactorWalk(t, 17, 16)
	ctx := context.Background()
	feasible := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			t.Fatal(err)
		}
	}

	before := core.CompileCount()
	for i := 0; i < 50; i++ {
		_, err := prog.Evaluate(ctx, core.Options{})
		feasible(err)
	}
	d := prog.NewDelta(core.Options{})
	for _, cand := range tilings {
		p, err := prog.WithTiling(cand)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Evaluate(ctx, core.Options{})
		feasible(err)
		_, err = prog.EvaluateDelta(ctx, d, cand, core.Options{})
		feasible(err)
	}
	_, errs := prog.EvaluateBatch(ctx, tilings, core.Options{})
	for _, err := range errs {
		feasible(err)
	}
	if n := core.CompileCount() - before; n != 0 {
		t.Errorf("the compiled path called Compile %d times, want 0", n)
	}
}
