package mapper

import (
	"context"
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

// hideStability wraps a dataflow behind the bare Dataflow interface so the
// StructureStable capability is invisible: TileSearch then takes the cold
// per-candidate compile path.
type hideStability struct{ dataflows.Dataflow }

// TestTileSearchProgramReuseMatchesCold: the compiled fast path (one
// Compile, per-rollout re-binds) must visit the same candidates and return
// the same best evaluation as the cold path for the same seed.
func TestTileSearchProgramReuseMatchesCold(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	spec := arch.Edge()
	run := func(df dataflows.Dataflow) (*Evaluation, []float64) {
		s := &TileSearch{Dataflow: df, Spec: spec, Rounds: 120, Seed: 7}
		best, trace := s.Run()
		if best == nil {
			t.Fatal("no valid mapping")
		}
		return best, trace
	}
	fast, fastTrace := run(dataflows.FLATRGran(shape, spec))
	cold, coldTrace := run(hideStability{dataflows.FLATRGran(shape, spec)})

	if !reflect.DeepEqual(fast.Factors, cold.Factors) {
		t.Errorf("fast path best factors %v, cold %v", fast.Factors, cold.Factors)
	}
	if !reflect.DeepEqual(fast.Result, cold.Result) {
		t.Errorf("fast path best Result differs from cold path")
	}
	if !reflect.DeepEqual(fastTrace, coldTrace) {
		t.Errorf("fast path trace differs from cold path")
	}
}

// TestTileSearchCompilesOnce: a 100-round search of a structure-stable
// template compiles its structure once and re-binds every later candidate,
// so the mapper's per-round cost never includes a Compile. perfbench's
// tune workload carries the speed this buys (ops_per_s and
// core.compiles_per_op); the round's steady-state evaluation allocates
// nothing (TestEvaluateIntoZeroAlloc in internal/core).
func TestTileSearchCompilesOnce(t *testing.T) {
	shape, ok := workload.AttentionShapeByName("ViT/16-B")
	if !ok {
		t.Fatal("ViT/16-B shape missing")
	}
	spec := arch.Edge()
	s := &TileSearch{Dataflow: dataflows.TileFlowAttention(shape, spec), Spec: spec, Rounds: 100, Seed: 1}
	before := core.CompileCount()
	best, trace := s.Run()
	if best == nil || len(trace) != 100 {
		t.Fatalf("search returned best %v after %d rounds, want a mapping after 100", best, len(trace))
	}
	if n := core.CompileCount() - before; n != 1 {
		t.Errorf("a 100-round search called Compile %d times, want 1", n)
	}
}

// stableNarrow declares the narrow template's structure stable, so its
// searches take the compiled delta path instead of the per-candidate one.
type stableNarrow struct{ *narrowTemplate }

func (stableNarrow) StructureStable() bool { return true }

// TestTuneNilWhenNothingEvaluates: Tune returns nil when no mapping, the
// default factors included, fits the machine, on the per-candidate and
// the compiled path alike; and TuneContext returns nil when its context
// is done before the defaults are evaluated.
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
	for _, df := range []dataflows.Dataflow{nt, stableNarrow{nt}} {
		if ev := Tune(df, spec, core.Options{}, 50, 1); ev != nil {
			t.Errorf("stable=%v: Tune returned %v cycles with %v, want nil",
				dataflows.IsStructureStable(df), ev.Cycles, ev.Factors)
		}
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
