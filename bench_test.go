// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Sec 7), one testing.B target per artifact, per the
// per-experiment index in DESIGN.md. Each iteration runs the experiment in
// Quick configuration; run cmd/tileflow-exp for the full-size tables.
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/experiments"
	"repro/internal/workload"
)

var benchCfg = experiments.Config{Quick: true, Seed: 1}

func BenchmarkFig8aCycleValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8ab(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CycleR2, "cycleR2")
	}
}

func BenchmarkFig8bEnergyValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8ab(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EnergyMeanErr, "energyErr")
	}
}

func BenchmarkFig8cSimValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8cd(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TileFlowCycleErr, "tileflowErr")
		b.ReportMetric(r.GraphBasedErr, "graphbasedErr")
	}
}

func BenchmarkFig8dSimEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8cd(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TileFlowEnergyErr, "energyErr")
	}
}

func BenchmarkFig9aFactorTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b3DTuningAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9b(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9c3DTuningConv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9c(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10EdgeAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAttentionComparison(benchCfg, arch.Edge())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedups["TileFlow"], "tileflowSpeedup")
	}
}

func BenchmarkFig10dBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10dBreakdown(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11CloudAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAttentionComparison(benchCfg, arch.Cloud())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedups["TileFlow"], "tileflowSpeedup")
	}
}

func BenchmarkFig12ConvChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunConvComparison(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedups["TileFlow"], "tileflowSpeedup")
	}
}

func BenchmarkFig13EnergyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14BandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6PESweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8GPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the design-choice ablations (retention and
// binding) DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Retention[0].EnergyFactor, "smallTileOverestimation")
	}
}

// BenchmarkEvaluate measures the cost of one tree-based analysis — the
// model's inner loop (the paper evaluates ~200 tiling samples in ~12 s on
// a Xeon; a single evaluation here is microseconds).
func BenchmarkEvaluate(b *testing.B) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	df := dataflows.FLATRGran(shape, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(root, df.Graph(), spec, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
