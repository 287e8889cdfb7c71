package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// Table6Row is one column of Table 6: cycles (in 10⁶) for one PE array
// size, baseline (FLAT-RGran) vs TileFlow.
type Table6Row struct {
	PESize       int // mesh edge (8..256)
	BaselineMCyc float64
	TileFlowMCyc float64
	BaselineOOM  bool
	TileFlowOOM  bool
}

// Table6 sweeps the per-core PE array from 8×8 to 256×256 on the Edge
// accelerator for Bert-B self-attention. The paper's shape: TileFlow is
// ~2× the baseline at small arrays, and both converge to the same
// bandwidth-bound optimum once the array is large enough.
func Table6(cfg Config) ([]Table6Row, error) {
	shape, _ := workload.AttentionShapeByName("Bert-B")
	var rows []Table6Row
	sizes := []int{8, 16, 32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{8, 32, 128}
	}
	for _, pe := range sizes {
		spec := arch.Edge().WithPEMesh(pe, pe)
		row := Table6Row{PESize: pe}
		if ev := cfg.tune(dataflows.AttentionCatalog.New("FLAT-RGran", shape, spec), spec, core.Options{}); ev != nil {
			row.BaselineMCyc = ev.Cycles / 1e6
		} else {
			row.BaselineOOM = true
		}
		if ev := cfg.tune(dataflows.AttentionCatalog.New("TileFlow", shape, spec), spec, core.Options{}); ev != nil {
			row.TileFlowMCyc = ev.Cycles / 1e6
		} else {
			row.TileFlowOOM = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable6 prints Table 6.
func RenderTable6(rows []Table6Row) string {
	t := newTable("PE size", "baseline (10^6 cyc)", "TileFlow (10^6 cyc)", "speedup")
	for _, r := range rows {
		base, tf := fmt.Sprintf("%.3f", r.BaselineMCyc), fmt.Sprintf("%.3f", r.TileFlowMCyc)
		sp := "-"
		if r.BaselineOOM {
			base = "OOM"
		}
		if r.TileFlowOOM {
			tf = "OOM"
		}
		if !r.BaselineOOM && !r.TileFlowOOM && r.TileFlowMCyc > 0 {
			sp = fmt.Sprintf("%.2fx", r.BaselineMCyc/r.TileFlowMCyc)
		}
		t.row(fmt.Sprintf("%d^2", r.PESize), base, tf, sp)
	}
	return "Table 6 — PE-array-size sweep, Bert-B attention on Edge (paper: ~2x at small arrays, equal at large)\n" + t.String()
}

// Table7DataflowNames is the granularity ladder of Table 7.
var Table7DataflowNames = []string{"FLAT-MGran", "FLAT-BGran", "FLAT-HGran", "FLAT-RGran", "TileFlow"}

// Table7Cell is one dataflow's result in one Table 7 scenario.
type Table7Cell struct {
	Dataflow string
	OOM      bool
	MCycles  float64
	L1MB     float64
	L2MB     float64
}

// Table7Result holds the three scenarios of Table 7.
type Table7Result struct {
	Fixed    []Table7Cell // part a: fixed factors, no memory limit
	Explored []Table7Cell // part b: tuned factors, no memory limit
	Limited  []Table7Cell // part c: tuned factors, capacity enforced
}

// Table7 compares the FLAT granularities against TileFlow for T5 with batch
// 128 on the Cloud accelerator, with and without tiling exploration and
// memory limits (Sec 7.5).
func Table7(cfg Config) (*Table7Result, error) {
	shape, _ := workload.AttentionShapeByName("T5")
	shape.Batch = 128
	spec := arch.Cloud()
	res := &Table7Result{}

	eval := func(name string, factors map[string]int, opts core.Options) Table7Cell {
		df := dataflows.AttentionCatalog.New(name, shape, spec)
		cell := Table7Cell{Dataflow: name}
		root, err := df.Build(factors)
		if err != nil {
			cell.OOM = true
			return cell
		}
		r, err := core.Evaluate(root, df.Graph(), spec, opts)
		if err != nil {
			cell.OOM = true
			return cell
		}
		cell.MCycles = r.Cycles / 1e6
		cell.L1MB = float64(r.FootprintWords[1]) * float64(spec.WordBytes) / (1 << 20)
		cell.L2MB = float64(r.FootprintWords[2]) * float64(spec.WordBytes) / (1 << 20)
		return cell
	}
	tuneCell := func(name string, opts core.Options) Table7Cell {
		df := dataflows.AttentionCatalog.New(name, shape, spec)
		ev := cfg.tune(df, spec, opts)
		cell := Table7Cell{Dataflow: name}
		if ev == nil {
			cell.OOM = true
			return cell
		}
		cell.MCycles = ev.Result.Cycles / 1e6
		cell.L1MB = float64(ev.Result.FootprintWords[1]) * float64(spec.WordBytes) / (1 << 20)
		cell.L2MB = float64(ev.Result.FootprintWords[2]) * float64(spec.WordBytes) / (1 << 20)
		return cell
	}

	for _, name := range Table7DataflowNames {
		df := dataflows.AttentionCatalog.New(name, shape, spec)
		res.Fixed = append(res.Fixed, eval(name, df.DefaultFactors(), core.Options{SkipCapacityCheck: true}))
		res.Explored = append(res.Explored, tuneCell(name, core.Options{SkipCapacityCheck: true}))
		res.Limited = append(res.Limited, tuneCell(name, core.Options{}))
	}
	return res, nil
}

// RenderTable7 prints the three scenarios.
func RenderTable7(r *Table7Result) string {
	render := func(title string, cells []Table7Cell) string {
		t := newTable("dataflow", "cycles (10^6)", "L1 used (MB)", "L2 used (MB)")
		for _, c := range cells {
			if c.OOM {
				t.row(c.Dataflow, "OOM", "-", "-")
				continue
			}
			t.row(c.Dataflow, fmt.Sprintf("%.2f", c.MCycles), fmt.Sprintf("%.2f", c.L1MB), fmt.Sprintf("%.2f", c.L2MB))
		}
		return title + "\n" + t.String()
	}
	out := "Table 7 — FLAT granularities vs TileFlow, T5 batch 128 on Cloud\n"
	out += render("part a) fixed tiling factors, no memory limit", r.Fixed)
	out += render("part b) explored tiling, no memory limit", r.Explored)
	out += render("part c) explored tiling, memory limit enforced (paper: MGran and BGran OOM)", r.Limited)
	return out
}

// Table8Row is one (model, seq_len) cell of Table 8.
type Table8Row struct {
	Model      string
	SeqLen     int
	BaselineMs float64
	TileFlowMs float64
	BaseOOM    bool
	TFOOM      bool
}

// Table8 evaluates the FLAT-RGran baseline and the TileFlow dataflow for
// T5/XLM attention with long sequences on the A100-like specification (the
// GPU substitution). The paper's shape: TileFlow wins everywhere and the
// baseline runs out of (shared) memory at 256k sequence length because FLAT
// must stage at least one full softmax row on chip.
func Table8(cfg Config) ([]Table8Row, error) {
	seqs := []int{1024, 4096, 16384, 65536, 262144}
	if cfg.Quick {
		seqs = []int{1024, 262144}
	}
	models := []struct {
		name   string
		heads  int
		hidden int
	}{
		{"T5", 16, 1024},
		{"XLM", 12, 768},
	}
	spec := arch.A100Like()
	// The TileFlow template's 8-factor space over long sequences needs a
	// larger search budget than the comparison experiments.
	big := cfg
	if big.Rounds < 400 {
		big.Rounds = 400
	}
	var rows []Table8Row
	for _, mdl := range models {
		for _, seq := range seqs {
			shape := workload.AttentionShape{
				Name: fmt.Sprintf("%s-%dk", mdl.name, seq/1024), Model: mdl.name,
				Heads: mdl.heads, SeqLen: seq, Hidden: mdl.hidden, Batch: 1,
			}
			row := Table8Row{Model: mdl.name, SeqLen: seq}
			if ev := big.tune(dataflows.FLATRGran(shape, spec), spec, core.Options{}); ev != nil {
				row.BaselineMs = ev.Cycles / (spec.FreqGHz * 1e9) * 1e3
			} else {
				row.BaseOOM = true
			}
			if ev := big.tune(dataflows.TileFlowAttention(shape, spec), spec, core.Options{}); ev != nil {
				row.TileFlowMs = ev.Cycles / (spec.FreqGHz * 1e9) * 1e3
			} else {
				row.TFOOM = true
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable8 prints Table 8.
func RenderTable8(rows []Table8Row) string {
	t := newTable("model", "seq_len", "baseline (ms)", "TileFlow (ms)", "speedup")
	for _, r := range rows {
		base, tf, sp := fmt.Sprintf("%.2f", r.BaselineMs), fmt.Sprintf("%.2f", r.TileFlowMs), "-"
		if r.BaseOOM {
			base = "OOM"
		}
		if r.TFOOM {
			tf = "OOM"
		}
		if !r.BaseOOM && !r.TFOOM && r.TileFlowMs > 0 {
			sp = fmt.Sprintf("%.2fx", r.BaselineMs/r.TileFlowMs)
		}
		t.row(r.Model, fmt.Sprintf("%d", r.SeqLen), base, tf, sp)
	}
	return "Table 8 — long-sequence attention on the A100-like spec (paper: baseline OOMs at 256k; TileFlow wins throughout)\n" + t.String()
}
