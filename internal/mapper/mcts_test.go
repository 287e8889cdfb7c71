package mapper

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

func TestTileSearchImprovesOverDefaults(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	df := dataflows.TileFlowAttention(shape, spec)

	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.Evaluate(root, df.Graph(), spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	s := &TileSearch{Dataflow: df, Spec: spec, Rounds: 300, Seed: 1}
	best, trace := s.Run()
	if best == nil {
		t.Fatal("search found no valid mapping")
	}
	if len(trace) != 300 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Trace must be monotonically non-increasing (best-so-far).
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1] {
			t.Fatalf("trace not monotone at %d: %v > %v", i, trace[i], trace[i-1])
		}
	}
	if best.Cycles > def.Cycles {
		t.Errorf("search best %v worse than defaults %v", best.Cycles, def.Cycles)
	}
	t.Logf("default=%.3g tuned=%.3g factors=%v", def.Cycles, best.Cycles, best.Factors)
}

func TestTileSearchDeterministic(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	run := func() float64 {
		df := dataflows.FLATRGran(shape, spec)
		s := &TileSearch{Dataflow: df, Spec: spec, Rounds: 100, Seed: 42}
		best, _ := s.Run()
		if best == nil {
			t.Fatal("no valid mapping")
		}
		return best.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

// TestTileSearchProgramReuseMatchesCold: the search's one route (one
// Compile, per-rollout re-binds into the delta evaluator, a recompile on a
// structure mismatch) must score every candidate exactly as a cold
// core.Evaluate of a freshly built tree does. A recording wrapper captures
// each candidate's factors; the test re-evaluates each one cold, rebuilds
// the best-so-far trace from those results, and requires the search's
// trace, best factors and best Result to match exactly.
func TestTileSearchProgramReuseMatchesCold(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	edge := arch.Edge()
	for _, tc := range []struct {
		name string
		df   dataflows.Dataflow
		spec *arch.Spec
	}{
		{"FLAT-RGran", dataflows.FLATRGran(shape, edge), edge},
		{"narrow-template", &narrowTemplate{g: narrowGraph(64, 8), i: 64}, narrowSpec()},
	} {
		const rounds = 120
		rec := &recordingDataflow{Dataflow: tc.df}
		best, trace := (&TileSearch{Dataflow: rec, Spec: tc.spec, Rounds: rounds, Seed: 7}).Run()
		if best == nil {
			t.Fatalf("%s: no valid mapping", tc.name)
		}
		if len(rec.built) != rounds+1 {
			t.Fatalf("%s: %d candidates built, want %d", tc.name, len(rec.built), rounds+1)
		}

		var want *Evaluation
		var wantTrace []float64
		for i, f := range rec.built {
			root, err := tc.df.Build(f)
			if err == nil {
				var res *core.Result
				if res, err = core.Evaluate(root, tc.df.Graph(), tc.spec, core.Options{}); err == nil &&
					(want == nil || res.Cycles < want.Cycles) {
					want = &Evaluation{Factors: f, Cycles: res.Cycles, Result: res}
				}
			}
			if i == 0 {
				continue // the default-factors seed precedes the trace
			}
			if want != nil {
				wantTrace = append(wantTrace, want.Cycles)
			} else {
				wantTrace = append(wantTrace, math.Inf(1))
			}
		}

		if !reflect.DeepEqual(best.Factors, want.Factors) {
			t.Errorf("%s: best factors %v, cold %v", tc.name, best.Factors, want.Factors)
		}
		if !reflect.DeepEqual(best.Result, want.Result) {
			t.Errorf("%s: best Result differs from the cold evaluation", tc.name)
		}
		if !reflect.DeepEqual(trace, wantTrace) {
			t.Errorf("%s: trace differs from the cold evaluations", tc.name)
		}
	}
}

// TestTileSearchCompilesOnce: a 100-round search whose candidates share
// one structure compiles it once and re-binds every later candidate, so
// the mapper's per-round cost never includes a Compile. That holds for a
// catalog template, for one behind a wrapper exposing only the Dataflow
// methods, and for a template with invalid candidates. perfbench's tune
// workload carries the speed this buys (ops_per_s and
// core.compiles_per_op); the round's steady-state evaluation allocates
// nothing (TestEvaluateIntoZeroAlloc in internal/core).
func TestTileSearchCompilesOnce(t *testing.T) {
	shape, ok := workload.AttentionShapeByName("ViT/16-B")
	if !ok {
		t.Fatal("ViT/16-B shape missing")
	}
	edge := arch.Edge()
	for _, tc := range []struct {
		name string
		df   dataflows.Dataflow
		spec *arch.Spec
	}{
		{"catalog", dataflows.TileFlowAttention(shape, edge), edge},
		{"bare wrapper", struct{ dataflows.Dataflow }{dataflows.TileFlowAttention(shape, edge)}, edge},
		{"narrow template", &narrowTemplate{g: narrowGraph(64, 8), i: 64}, narrowSpec()},
	} {
		s := &TileSearch{Dataflow: tc.df, Spec: tc.spec, Rounds: 100, Seed: 1}
		before := core.CompileCount()
		best, trace := s.Run()
		if best == nil || len(trace) != 100 {
			t.Fatalf("%s: search returned best %v after %d rounds, want a mapping after 100", tc.name, best, len(trace))
		}
		if n := core.CompileCount() - before; n != 1 {
			t.Errorf("%s: a 100-round search called Compile %d times, want 1", tc.name, n)
		}
	}
}

// TestTuneNilWhenNothingEvaluates: Tune returns nil when no mapping, the
// default factors included, fits the machine; and TuneContext returns nil
// when its context is done before the defaults are evaluated.
func TestTuneNilWhenNothingEvaluates(t *testing.T) {
	spec := narrowSpec()
	spec.Levels[0].CapacityBytes = 2
	spec.Levels[1].CapacityBytes = 2
	nt := &narrowTemplate{g: narrowGraph(16, 8), i: 16}
	root, err := nt.Build(nt.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Evaluate(root, nt.Graph(), spec, core.Options{}); err == nil {
		t.Fatal("default factors evaluate; the test needs them infeasible")
	}
	if ev := Tune(nt, spec, core.Options{}, 50, 1); ev != nil {
		t.Errorf("Tune returned %v cycles with %v, want nil", ev.Cycles, ev.Factors)
	}

	shape, _ := workload.AttentionShapeByName("Bert-S")
	edge := arch.Edge()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ev := TuneContext(ctx, dataflows.FLATRGran(shape, edge), edge, core.Options{}, 50, 1); ev != nil {
		t.Errorf("canceled TuneContext returned %v cycles, want nil", ev.Cycles)
	}
}

// BenchmarkTileSearch is one whole MCTS search per iteration, with a fresh
// TileSearch (and so a fresh Program and DeltaState) each time, as the
// callers create them: a catalog template at the paper's 200-round budget,
// and a GA candidate (Bert-S on Cloud, every op fused into its consumer
// at L1 under Pipe, repaired) at the explore workload's 12 rounds.
func BenchmarkTileSearch(b *testing.B) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	edge, cloud := arch.Edge(), arch.Cloud()
	g := workload.Attention(shape)
	enc := LayerwiseEncoding(len(g.Ops))
	for i := 0; i < len(g.Ops)-1; i++ {
		enc.Target[i], enc.Mem[i], enc.Binding[i] = i+1, 1, core.Pipe
	}
	enc.Repair(cloud.NumLevels())
	for _, bc := range []struct {
		name   string
		df     dataflows.Dataflow
		spec   *arch.Spec
		rounds int
	}{
		{"catalog-200", dataflows.FLATRGran(shape, edge), edge, 200},
		{"ga-candidate-12", NewGeneratedDataflow("candidate", g, cloud, enc), cloud, 12},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &TileSearch{Dataflow: bc.df, Spec: bc.spec, Rounds: bc.rounds, Seed: 1}
				if best, _ := s.Run(); best == nil {
					b.Fatal("no valid mapping")
				}
			}
		})
	}
}
