package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// gaCandidate is one GA candidate as the search compiles it: Bert-S on
// Cloud with every op fused into its consumer under Pipe, tiled at several
// levels with both spatial splits.
func gaCandidate(tb testing.TB) (*core.Node, *workload.Graph, *arch.Spec) {
	tb.Helper()
	shape, _ := workload.AttentionShapeByName("Bert-S")
	g := workload.Attention(shape)
	spec := arch.Cloud()
	enc := mapper.LayerwiseEncoding(len(g.Ops))
	for i := 0; i < len(g.Ops)-1; i++ {
		enc.Target[i], enc.Mem[i], enc.Binding[i] = i+1, 2, core.Pipe
	}
	gd := mapper.NewGeneratedDataflow("candidate", g, spec, enc)
	f := gd.DefaultFactors()
	f["L2_m"], f["L1_m"], f["L2_l"], f["L1_k"] = 4, 2, 8, 2
	root, err := gd.Build(f)
	if err != nil {
		tb.Fatal(err)
	}
	return root, g, spec
}

// compileFixtures are the cold-path fixtures: the canonical design point
// and a GA candidate.
var compileFixtures = []struct {
	name string
	load func(testing.TB) (*core.Node, *workload.Graph, *arch.Spec)
	// maxAllocs is TestCompileAllocs' budget for one Compile.
	maxAllocs float64
}{
	{"design-point", benchDesignPoint, 76},
	{"ga-candidate", gaCandidate, 84},
}

// BenchmarkCompile is the tiling-independent half of the pipeline on its
// own: what every new structure — a GA encoding, a /v1/evaluate miss —
// pays before its first evaluation.
func BenchmarkCompile(b *testing.B) {
	for _, fx := range compileFixtures {
		b.Run(fx.name, func(b *testing.B) {
			root, g, spec := fx.load(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(root, g, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileAllocs is the cold path's timing-free cost gate: Compile
// builds its structure tables from a fixed handful of slabs, so its
// allocation count must not creep back towards one allocation per node,
// group or access.
func TestCompileAllocs(t *testing.T) {
	for _, fx := range compileFixtures {
		root, g, spec := fx.load(t)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := core.Compile(root, g, spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per Compile", fx.name, allocs)
		if allocs > fx.maxAllocs {
			t.Errorf("%s: Compile allocates %v objects, want <= %v", fx.name, allocs, fx.maxAllocs)
		}
	}
}
