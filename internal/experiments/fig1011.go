package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// DataflowPoint is one (shape, dataflow) evaluation with mapper-tuned
// tiling factors.
type DataflowPoint struct {
	Shape    string
	Dataflow string
	// OOM marks mappings for which no capacity-respecting tiling exists.
	OOM    bool
	Cycles float64
	// DRAM is off-chip traffic in words; OnChip sums all on-chip levels;
	// L2 and L1PerSubcore split it for the Cloud plots.
	DRAM, OnChip   float64
	L2             float64
	L1PerSubcore   float64
	Utilization    float64
	EnergyPJ       float64
	FillL1, ReadL1 float64
	UpdateL1       float64
	FootprintL1KB  int64
}

// AttentionComparison is the Fig 10 (Edge) / Fig 11 (Cloud) experiment:
// every Table 5 dataflow on every Table 2 shape, tiling tuned per point.
type AttentionComparison struct {
	Spec   string
	Points []DataflowPoint
	// Speedups holds each dataflow's geometric-mean speedup over
	// Layerwise across shapes.
	Speedups map[string]float64
	// DRAMReduction holds each dataflow's mean DRAM traffic reduction vs
	// Layerwise.
	DRAMReduction map[string]float64
}

// RunAttentionComparison evaluates the comparison on the given accelerator.
func RunAttentionComparison(cfg Config, spec *arch.Spec) (*AttentionComparison, error) {
	res := &AttentionComparison{
		Spec:          spec.Name,
		Speedups:      map[string]float64{},
		DRAMReduction: map[string]float64{},
	}
	type agg struct{ speedups, reductions []float64 }
	aggs := map[string]*agg{}

	shapes := cfg.attentionShapes()
	if spec.NumLevels() >= 4 && !cfg.Quick {
		// Fig 11 uses the nine Bert/ViT shapes (no T5/XLM).
		shapes = shapes[:9]
	}
	for _, shape := range shapes {
		var layer *DataflowPoint
		for _, name := range AttentionDataflowNames {
			df := dataflows.AttentionCatalog.New(name, shape, spec)
			ev := cfg.tune(df, spec, core.Options{})
			pt := DataflowPoint{Shape: shape.Name, Dataflow: name}
			if ev == nil {
				pt.OOM = true
				res.Points = append(res.Points, pt)
				continue
			}
			fill(&pt, ev.Result, spec)
			res.Points = append(res.Points, pt)
			if name == "Layerwise" {
				layer = &res.Points[len(res.Points)-1]
				continue
			}
			if layer != nil && !pt.OOM {
				a := aggs[name]
				if a == nil {
					a = &agg{}
					aggs[name] = a
				}
				a.speedups = append(a.speedups, layer.Cycles/pt.Cycles)
				if layer.DRAM > 0 {
					a.reductions = append(a.reductions, 1-pt.DRAM/layer.DRAM)
				}
			}
		}
	}
	for name, a := range aggs {
		res.Speedups[name] = geomean(a.speedups)
		var s float64
		for _, r := range a.reductions {
			s += r
		}
		if len(a.reductions) > 0 {
			res.DRAMReduction[name] = s / float64(len(a.reductions))
		}
	}
	return res, nil
}

func fill(pt *DataflowPoint, r *core.Result, spec *arch.Spec) {
	pt.Cycles = r.Cycles
	pt.DRAM = r.DRAMTraffic()
	pt.OnChip = r.OnChipTraffic()
	pt.Utilization = r.Utilization
	pt.EnergyPJ = r.EnergyPJ()
	pt.FillL1 = r.DM[1].Fill
	pt.ReadL1 = r.DM[1].Read
	pt.UpdateL1 = r.DM[1].Update
	pt.FootprintL1KB = r.FootprintWords[1] * int64(spec.WordBytes) / 1024
	if spec.NumLevels() >= 4 {
		pt.L2 = r.DM[2].Total()
		pt.L1PerSubcore = r.DM[1].Total() / float64(spec.Instances(1))
	}
}

// Render prints the normalized-cycle / DRAM / on-chip DM tables of
// Fig 10a–c or Fig 11a–d, plus the per-dataflow summary.
func (r *AttentionComparison) Render() string {
	var b []byte
	title := "Fig 10 — self-attention dataflows on Edge"
	if r.Spec != "Edge" {
		title = "Fig 11 — self-attention dataflows on " + r.Spec
	}
	b = append(b, (title + "\n")...)

	byShape := map[string]map[string]DataflowPoint{}
	for _, pt := range r.Points {
		if byShape[pt.Shape] == nil {
			byShape[pt.Shape] = map[string]DataflowPoint{}
		}
		byShape[pt.Shape][pt.Dataflow] = pt
	}
	t := newTable(append([]string{"shape"}, AttentionDataflowNames...)...)
	for _, shape := range sortedKeys(byShape) {
		cells := []string{shape}
		layer := byShape[shape]["Layerwise"]
		for _, name := range AttentionDataflowNames {
			pt := byShape[shape][name]
			if pt.OOM {
				cells = append(cells, "OOM")
			} else if layer.Cycles > 0 {
				cells = append(cells, fmt.Sprintf("%.3f", pt.Cycles/layer.Cycles))
			} else {
				cells = append(cells, fmt.Sprintf("%.3g", pt.Cycles))
			}
		}
		t.row(cells...)
	}
	b = append(b, ("part a) normalized cycles (vs Layerwise)\n" + t.String())...)

	t2 := newTable(append([]string{"shape"}, AttentionDataflowNames...)...)
	for _, shape := range sortedKeys(byShape) {
		cells := []string{shape}
		layer := byShape[shape]["Layerwise"]
		for _, name := range AttentionDataflowNames {
			pt := byShape[shape][name]
			if pt.OOM {
				cells = append(cells, "OOM")
			} else if layer.DRAM > 0 {
				cells = append(cells, fmt.Sprintf("%.3f", pt.DRAM/layer.DRAM))
			} else {
				cells = append(cells, fmt.Sprintf("%.3g", pt.DRAM))
			}
		}
		t2.row(cells...)
	}
	b = append(b, ("part b) normalized DRAM data movement\n" + t2.String())...)

	t3 := newTable(append([]string{"shape"}, AttentionDataflowNames...)...)
	for _, shape := range sortedKeys(byShape) {
		cells := []string{shape}
		layer := byShape[shape]["Layerwise"]
		for _, name := range AttentionDataflowNames {
			pt := byShape[shape][name]
			switch {
			case pt.OOM:
				cells = append(cells, "OOM")
			case layer.OnChip > 0:
				cells = append(cells, fmt.Sprintf("%.2f", pt.OnChip/layer.OnChip))
			default:
				cells = append(cells, fmt.Sprintf("%.3g", pt.OnChip))
			}
		}
		t3.row(cells...)
	}
	b = append(b, ("part c) normalized on-chip data movement\n" + t3.String())...)

	t4 := newTable("dataflow", "geomean speedup vs Layerwise", "mean DRAM reduction", "utilization(first shape)")
	for _, name := range AttentionDataflowNames[1:] {
		util := ""
		for _, pt := range r.Points {
			if pt.Dataflow == name && !pt.OOM {
				util = fmt.Sprintf("%.2f", pt.Utilization)
				break
			}
		}
		t4.row(name, fmt.Sprintf("%.2fx", r.Speedups[name]), fmt.Sprintf("%.1f%%", 100*r.DRAMReduction[name]), util)
	}
	b = append(b, ("summary\n" + t4.String())...)
	return string(b)
}

// BreakdownRow is the Fig 10d L1 traffic split for one dataflow.
type BreakdownRow struct {
	Dataflow                 string
	FillPct, ReadPct, UpdPct float64
}

// Fig10dBreakdown computes the Bert-B L1 data-movement breakdown on Edge.
func Fig10dBreakdown(cfg Config) ([]BreakdownRow, error) {
	spec := arch.Edge()
	shape, _ := workload.AttentionShapeByName("Bert-B")
	var rows []BreakdownRow
	for _, name := range AttentionDataflowNames {
		df := dataflows.AttentionCatalog.New(name, shape, spec)
		ev := cfg.tune(df, spec, core.Options{})
		if ev == nil {
			continue
		}
		l1 := ev.Result.DM[1]
		total := l1.Total()
		if total == 0 {
			continue
		}
		rows = append(rows, BreakdownRow{
			Dataflow: name,
			FillPct:  100 * l1.Fill / total,
			ReadPct:  100 * l1.Read / total,
			UpdPct:   100 * l1.Update / total,
		})
	}
	return rows, nil
}

// RenderBreakdown prints Fig 10d.
func RenderBreakdown(rows []BreakdownRow) string {
	t := newTable("dataflow", "fill%", "read%", "update%")
	for _, r := range rows {
		t.row(r.Dataflow, fmt.Sprintf("%.1f", r.FillPct), fmt.Sprintf("%.1f", r.ReadPct), fmt.Sprintf("%.1f", r.UpdPct))
	}
	return "Fig 10d — L1 data-movement breakdown (Bert-B, Edge; paper: 80.9% read, 14.7% update)\n" + t.String()
}
