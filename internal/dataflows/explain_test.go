package dataflows

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestExplainRootMatchesEvaluate: Explain decomposes the number Evaluate
// reports. For every Table 5 template on every Table 2/3 shape, on Edge
// and Cloud, the root report's max(load, inner, store) is Evaluate's
// Cycles bit for bit. A template whose default factors do not divide a
// shape's dimensions builds no tree there and is skipped.
func TestExplainRootMatchesEvaluate(t *testing.T) {
	opts := core.Options{SkipCapacityCheck: true}
	checked := 0
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		var flows []Dataflow
		for _, s := range workload.AttentionShapes {
			flows = append(flows, attentionDataflows(s, spec)...)
		}
		for _, s := range workload.ConvChainShapes {
			flows = append(flows, convDataflows(s, spec)...)
		}
		for _, df := range flows {
			root, err := df.Build(df.DefaultFactors())
			if err != nil {
				continue
			}
			res, err := core.Evaluate(root, df.Graph(), spec, opts)
			if err != nil {
				t.Errorf("%s/%s on %s: evaluate: %v", df.Name(), df.Graph().Name, spec.Name, err)
				continue
			}
			reports, err := core.Explain(root, df.Graph(), spec, opts)
			if err != nil {
				t.Fatalf("%s/%s on %s: explain: %v", df.Name(), df.Graph().Name, spec.Name, err)
			}
			checked++
			r := reports[0]
			if got := math.Max(r.LoadCycles, math.Max(r.InnerCycles, r.StoreCycles)); got != res.Cycles {
				t.Errorf("%s/%s on %s: explained root %v cycles, Evaluate %v", df.Name(), df.Graph().Name, spec.Name, got, res.Cycles)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no design point evaluated")
	}
	t.Logf("%d design points", checked)
}
