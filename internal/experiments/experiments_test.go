package experiments

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

var quick = Config{Quick: true, Seed: 1}

// pinHeadline fails when a headline number of the quick configuration
// (deterministic for a fixed seed at any -cpu) drifts more than 2% from
// its recorded value, so a refactor that moves the model's agreement with
// the paper fails tier-1. EXPERIMENTS.md reports the full-mode figures.
func pinHeadline(t *testing.T, name string, got, want float64) {
	t.Helper()
	if d := got/want - 1; d < -0.02 || d > 0.02 {
		t.Errorf("%s = %.4g, pinned at %.4g ± 2%%", name, got, want)
	}
}

func TestFig8ab(t *testing.T) {
	r, err := Fig8ab(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Points < 50 {
		t.Fatalf("only %d points", r.Points)
	}
	if r.CycleR2 < 0.99 {
		t.Errorf("cycle R² %.4f, want ≥ 0.99 (paper 0.999)", r.CycleR2)
	}
	if r.EnergyMeanErr > 0.05 {
		t.Errorf("energy err %.4f, want ≤ 0.05 (paper 0.001)", r.EnergyMeanErr)
	}
	t.Log("\n" + r.Render())
}

func TestFig8cd(t *testing.T) {
	r, err := Fig8cd(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mappings < 4 {
		t.Fatalf("only %d mappings", r.Mappings)
	}
	if r.TileFlowCycleErr > 0.20 {
		t.Errorf("TileFlow cycle err %.3f, want ≤ 0.20 (paper 0.054)", r.TileFlowCycleErr)
	}
	if r.GraphBasedErr < r.TileFlowCycleErr {
		t.Errorf("graph-based err %.3f should exceed tree-based %.3f", r.GraphBasedErr, r.TileFlowCycleErr)
	}
	if r.TileFlowEnergyErr > 0.20 {
		t.Errorf("TileFlow energy err %.3f, want ≤ 0.20 (paper 0.061)", r.TileFlowEnergyErr)
	}
	pinHeadline(t, "Fig 8c TileFlow cycle err", r.TileFlowCycleErr, 0.081)
	pinHeadline(t, "Fig 8c graph-based cycle err", r.GraphBasedErr, 0.416)
	pinHeadline(t, "Fig 8d TileFlow energy err", r.TileFlowEnergyErr, 0.069)
	t.Log("\n" + r.Render())
}

func TestFig10EdgeShape(t *testing.T) {
	r, err := RunAttentionComparison(quick, arch.Edge())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: TileFlow best, Layerwise worst, fusion
	// dataflows cut DRAM traffic by most of an order of magnitude.
	if r.Speedups["TileFlow"] <= 1.5 {
		t.Errorf("TileFlow speedup %.2f, want > 1.5 (paper 6.65)", r.Speedups["TileFlow"])
	}
	if r.Speedups["TileFlow"] <= r.Speedups["FLAT-HGran"] {
		t.Errorf("TileFlow %.2f must beat FLAT-HGran %.2f (paper: 1.85x apart)",
			r.Speedups["TileFlow"], r.Speedups["FLAT-HGran"])
	}
	for _, name := range []string{"FLAT-HGran", "FLAT-RGran", "TileFlow"} {
		if red := r.DRAMReduction[name]; red < 0.5 {
			t.Errorf("%s DRAM reduction %.2f, want ≥ 0.5 (paper 0.75-0.90)", name, red)
		}
	}
	pinHeadline(t, "Fig 10 Edge TileFlow speedup", r.Speedups["TileFlow"], 5.56)
	pinHeadline(t, "Fig 10 Edge TileFlow DRAM reduction", r.DRAMReduction["TileFlow"], 0.938)
	t.Log("\n" + r.Render())
}

func TestFig10dBreakdown(t *testing.T) {
	rows, err := Fig10dBreakdown(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Reads dominate L1 traffic (paper: 80.9% read on average).
	var readSum float64
	for _, r := range rows {
		readSum += r.ReadPct
	}
	if avg := readSum / float64(len(rows)); avg < 50 {
		t.Errorf("average read share %.1f%%, want ≥ 50%% (paper 80.9%%)", avg)
	}
	t.Log("\n" + RenderBreakdown(rows))
}

func TestFig12Shape(t *testing.T) {
	r, err := RunConvComparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedups["TileFlow"] <= 1.0 {
		t.Errorf("TileFlow conv speedup %.2f, want > 1 (paper 1.59)", r.Speedups["TileFlow"])
	}
	if r.Speedups["TileFlow"] <= r.Speedups["Fused-Layer"] {
		t.Errorf("TileFlow %.2f must beat Fused-Layer %.2f (paper 1.59 vs 1.01)",
			r.Speedups["TileFlow"], r.Speedups["Fused-Layer"])
	}
	// Fused-Layer cuts DRAM traffic substantially even when latency is
	// flat (paper: 73% DRAM reduction at 1.01x speedup).
	for _, pt := range r.Points {
		if pt.Dataflow != "Fused-Layer" || pt.OOM {
			continue
		}
		var layer DataflowPoint
		for _, q := range r.Points {
			if q.Shape == pt.Shape && q.Dataflow == "Layerwise" {
				layer = q
			}
		}
		if layer.DRAM > 0 && pt.DRAM > 0.7*layer.DRAM {
			t.Errorf("%s Fused-Layer DRAM %.3g not well below Layerwise %.3g", pt.Shape, pt.DRAM, layer.DRAM)
		}
	}
	t.Log("\n" + r.Render())
}

func TestFig13Shape(t *testing.T) {
	rows, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The key shape: growing L1 from 200KB to 1MB shifts the breakdown
	// toward L1 energy.
	var small, large []float64
	for _, r := range rows {
		if r.L1 == "200KB" {
			small = append(small, r.L1Pct)
		} else {
			large = append(large, r.L1Pct)
		}
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if len(small) == 0 || len(large) == 0 {
		t.Fatal("missing rows")
	}
	if avg(large) <= avg(small) {
		t.Errorf("L1 share must grow with capacity: 200KB %.1f%% vs 1MB %.1f%%", avg(small), avg(large))
	}
	t.Log("\n" + RenderFig13(rows))
}

func TestFig14Shape(t *testing.T) {
	traces, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	for _, tr := range traces {
		if len(tr.Points) < 3 {
			t.Fatalf("%s/%s: only %d points", tr.Chain, tr.Dataflow, len(tr.Points))
		}
		// Slow-down is non-increasing in bandwidth.
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].SlowDown > tr.Points[i-1].SlowDown+1e-9 {
				t.Errorf("%s/%s: slow-down increases with bandwidth", tr.Chain, tr.Dataflow)
			}
		}
		if tr.Points[0].SlowDown <= 1 {
			t.Errorf("%s/%s: no slow-down at 1 GB/s?", tr.Chain, tr.Dataflow)
		}
	}
	// Note: the paper's Fig 14 has TileFlow demanding MORE bandwidth than
	// Fused-Layer (faster compute raises demand); our eviction model
	// charges Fused-Layer's Seq refetches more heavily, which can invert
	// the ordering — see EXPERIMENTS.md. Only monotonicity and a real
	// low-bandwidth slow-down are asserted.
	t.Log("\n" + RenderFig14(traces))
}

func TestTable6Shape(t *testing.T) {
	rows, err := Table6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatal("too few rows")
	}
	// Cycles decrease (weakly) with PE count until the bandwidth bound.
	for i := 1; i < len(rows); i++ {
		if !rows[i].TileFlowOOM && !rows[i-1].TileFlowOOM &&
			rows[i].TileFlowMCyc > rows[i-1].TileFlowMCyc*1.05 {
			t.Errorf("TileFlow cycles grew with PE size: %v -> %v", rows[i-1], rows[i])
		}
	}
	t.Log("\n" + RenderTable6(rows))
}

func TestTable7Shape(t *testing.T) {
	r, err := Table7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Memory-limited scenario: MGran and BGran must OOM (paper part c).
	lim := map[string]Table7Cell{}
	for _, c := range r.Limited {
		lim[c.Dataflow] = c
	}
	if !lim["FLAT-MGran"].OOM {
		t.Error("FLAT-MGran should OOM under the memory limit")
	}
	if !lim["FLAT-BGran"].OOM {
		t.Error("FLAT-BGran should OOM under the memory limit")
	}
	if lim["TileFlow"].OOM {
		t.Error("TileFlow should fit under the memory limit")
	}
	// Finer granularity needs less L1 (explored, no limit).
	exp := map[string]Table7Cell{}
	for _, c := range r.Explored {
		exp[c.Dataflow] = c
	}
	if h, rg := exp["FLAT-HGran"], exp["FLAT-RGran"]; !h.OOM && !rg.OOM && rg.L1MB > h.L1MB {
		t.Errorf("RGran L1 %.2fMB should not exceed HGran %.2fMB", rg.L1MB, h.L1MB)
	}
	t.Log("\n" + RenderTable7(r))
}

func TestTable8Shape(t *testing.T) {
	rows, err := Table8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SeqLen == 262144 && !r.BaseOOM {
			t.Errorf("%s @256k: baseline should OOM (FLAT stages a full softmax row)", r.Model)
		}
		if r.TFOOM {
			t.Errorf("%s @%d: TileFlow should never OOM", r.Model, r.SeqLen)
		}
		if !r.BaseOOM && !r.TFOOM && r.TileFlowMs >= r.BaselineMs {
			t.Errorf("%s @%d: TileFlow %.2fms not below baseline %.2fms", r.Model, r.SeqLen, r.TileFlowMs, r.BaselineMs)
		}
	}
	t.Log("\n" + RenderTable8(rows))
}

func TestFig9aTraces(t *testing.T) {
	r, err := Fig9a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) < 4 {
		t.Fatalf("only %d traces", len(r.Traces))
	}
	out := r.Render()
	if !strings.Contains(out, "TileFlow") {
		t.Error("render missing TileFlow trace")
	}
	t.Log("\n" + out)
}

func TestAblation(t *testing.T) {
	r, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Retention) != 3 || len(r.Binding) != 4 {
		t.Fatalf("rows: %d retention, %d binding", len(r.Retention), len(r.Binding))
	}
	// Overestimation is worst for the smallest tiles and at least 1x
	// everywhere.
	for i := 1; i < len(r.Retention); i++ {
		if r.Retention[i].EnergyFactor > r.Retention[i-1].EnergyFactor+1e-9 {
			t.Errorf("overestimation should shrink with tile size: %+v", r.Retention)
		}
	}
	if r.Retention[0].EnergyFactor <= 1 {
		t.Errorf("small tiles show no overestimation: %+v", r.Retention[0])
	}
	// Pipe overlaps compute: its compute-only latency must be the lowest.
	byName := map[string]BindingRow{}
	for _, b := range r.Binding {
		byName[b.Binding] = b
	}
	if p, s := byName["Pipe"], byName["Seq"]; !p.OOM && !s.OOM && p.ComputeCyc >= s.ComputeCyc {
		t.Errorf("Pipe compute %v not below Seq %v", p.ComputeCyc, s.ComputeCyc)
	}
	// Seq eviction moves at least as much DRAM data as Shar retention.
	if q, h := byName["Seq"], byName["Shar"]; !q.OOM && !h.OOM && q.DRAM < h.DRAM-0.5 {
		t.Errorf("Seq DRAM %v below Shar %v", q.DRAM, h.DRAM)
	}
	t.Log("\n" + r.Render())
}

func TestFig9bTraces(t *testing.T) {
	r, err := Fig9b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) == 0 {
		t.Fatal("no traces")
	}
	for _, tr := range r.Traces {
		norm := tr.Normalized()
		if last := norm[len(norm)-1]; last != 1.0 {
			t.Errorf("%s: trace does not end converged: %v", tr.Label, last)
		}
		for i := 1; i < len(norm); i++ {
			if norm[i] < norm[i-1]-1e-9 {
				t.Errorf("%s: normalized trace not monotone", tr.Label)
			}
		}
	}
	if len(r.BestEncodings) != len(r.Traces) {
		t.Errorf("encodings %d != traces %d", len(r.BestEncodings), len(r.Traces))
	}
	t.Log("\n" + r.Render())
}

func TestFig9cDiscoversPipelinedFusion(t *testing.T) {
	r, err := Fig9c(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) == 0 {
		t.Fatal("no traces")
	}
	// The full-size run (results_full.txt) discovers the pipelined fusion
	// (op0->op1@L1:Pipe) for 4 of 5 chains; under the quick budget a
	// layerwise tie may win, so only convergence is asserted here.
	for _, tr := range r.Traces {
		norm := tr.Normalized()
		if norm[len(norm)-1] != 1.0 {
			t.Errorf("%s: trace does not end converged", tr.Label)
		}
	}
	t.Log("\n" + r.Render())
}
