package dataflows

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// attentionDataflows lists every Table 5 attention dataflow for a shape/spec.
func attentionDataflows(s workload.AttentionShape, spec *arch.Spec) []Dataflow {
	return instantiate(AttentionCatalog, s, spec)
}

func convDataflows(s workload.ConvChainShape, spec *arch.Spec) []Dataflow {
	return instantiate(ConvCatalog, s, spec)
}

func instantiate[S any](c Catalog[S], s S, spec *arch.Spec) []Dataflow {
	out := make([]Dataflow, len(c))
	for i, t := range c {
		out[i] = t.Build(s, spec)
	}
	return out
}

// TestAllTemplatesBuildAndEvaluate builds every named dataflow with its
// default factors on both accelerators and checks the evaluation runs.
func TestAllTemplatesBuildAndEvaluate(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	cc, _ := workload.ConvChainShapeByName("CC3")
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		var flows []Dataflow
		flows = append(flows, attentionDataflows(shape, spec)...)
		flows = append(flows, convDataflows(cc, spec)...)
		for _, df := range flows {
			t.Run(spec.Name+"/"+df.Name()+"/"+df.Graph().Name, func(t *testing.T) {
				root, err := df.Build(df.DefaultFactors())
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := core.Evaluate(root, df.Graph(), spec, core.Options{SkipCapacityCheck: true})
				if err != nil {
					t.Fatalf("evaluate: %v", err)
				}
				if res.Cycles <= 0 {
					t.Errorf("cycles = %v", res.Cycles)
				}
				if res.DRAMTraffic() <= 0 {
					t.Errorf("DRAM traffic = %v", res.DRAMTraffic())
				}
			})
		}
	}
}

// TestFusionBeatsLayerwiseOnDRAM checks the paper's central qualitative
// result: fusion dataflows move far less DRAM data than Layerwise.
func TestFusionBeatsLayerwiseOnDRAM(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	eval := func(df Dataflow) float64 {
		root, err := df.Build(df.DefaultFactors())
		if err != nil {
			t.Fatalf("%s build: %v", df.Name(), err)
		}
		res, err := core.Evaluate(root, df.Graph(), spec, core.Options{SkipCapacityCheck: true})
		if err != nil {
			t.Fatalf("%s evaluate: %v", df.Name(), err)
		}
		return res.DRAMTraffic()
	}
	layer := eval(LayerwiseAttention(shape, spec))
	for _, df := range []Dataflow{FLATHGran(shape, spec), FLATRGran(shape, spec), TileFlowAttention(shape, spec)} {
		if got := eval(df); got >= layer {
			t.Errorf("%s DRAM traffic %v not below Layerwise %v", df.Name(), got, layer)
		}
	}
}

// TestFactorValidation checks that non-divisor factors are rejected.
func TestFactorValidation(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	df := FLATRGran(shape, arch.Edge())
	f := df.DefaultFactors()
	f["t_m"] = 7 // 512 % 7 != 0
	if _, err := df.Build(f); err == nil {
		t.Error("want error for non-divisor factor, got nil")
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v, want %v", got, want)
		}
	}
	if DivisorAtMost(12, 5) != 4 {
		t.Errorf("DivisorAtMost(12,5) = %d", DivisorAtMost(12, 5))
	}
	if DivisorNear(12, 5) != 6 {
		t.Errorf("DivisorNear(12,5) = %d", DivisorNear(12, 5))
	}
}

// TestDivisorAtMostBruteForce checks DivisorAtMost against its definition,
// the largest divisor of n no greater than cap and at least 1, for every
// n ≤ 4096 and cap ≤ 256 (non-positive values included).
func TestDivisorAtMostBruteForce(t *testing.T) {
	for n := -1; n <= 4096; n++ {
		var divs []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				divs = append(divs, d)
			}
		}
		for c := -1; c <= 256; c++ {
			want := 1
			for _, d := range divs {
				if d <= c {
					want = d
				}
			}
			if got := DivisorAtMost(n, c); got != want {
				t.Fatalf("DivisorAtMost(%d, %d) = %d, want %d", n, c, got, want)
			}
		}
	}
}
