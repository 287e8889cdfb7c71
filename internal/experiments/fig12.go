package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
)

// ConvComparison is the Fig 12 experiment: the Table 3 3×3 convolution
// chains on the Cloud accelerator across the four conv dataflows.
type ConvComparison struct {
	Points   []DataflowPoint
	Speedups map[string]float64
}

// RunConvComparison evaluates Fig 12.
func RunConvComparison(cfg Config) (*ConvComparison, error) {
	spec := arch.Cloud()
	res := &ConvComparison{Speedups: map[string]float64{}}
	type agg struct{ speedups []float64 }
	aggs := map[string]*agg{}
	for _, shape := range cfg.convShapes() {
		var layer *DataflowPoint
		for _, name := range ConvDataflowNames {
			df := dataflows.ConvCatalog.New(name, shape, spec)
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
			if layer != nil {
				a := aggs[name]
				if a == nil {
					a = &agg{}
					aggs[name] = a
				}
				a.speedups = append(a.speedups, layer.Cycles/pt.Cycles)
			}
		}
	}
	for name, a := range aggs {
		res.Speedups[name] = geomean(a.speedups)
	}
	return res, nil
}

// Render prints the Fig 12 tables.
func (r *ConvComparison) Render() string {
	byShape := map[string]map[string]DataflowPoint{}
	for _, pt := range r.Points {
		if byShape[pt.Shape] == nil {
			byShape[pt.Shape] = map[string]DataflowPoint{}
		}
		byShape[pt.Shape][pt.Dataflow] = pt
	}
	out := "Fig 12 — 3x3 convolution chains on Cloud\n"
	t := newTable(append([]string{"chain"}, ConvDataflowNames...)...)
	t2 := newTable(append([]string{"chain"}, ConvDataflowNames...)...)
	for _, shape := range sortedKeys(byShape) {
		cells := []string{shape}
		cells2 := []string{shape}
		layer := byShape[shape]["Layerwise"]
		for _, name := range ConvDataflowNames {
			pt := byShape[shape][name]
			if pt.OOM {
				cells = append(cells, "OOM")
				cells2 = append(cells2, "OOM")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", pt.Cycles/layer.Cycles))
			cells2 = append(cells2, fmt.Sprintf("%.3f", pt.DRAM/layer.DRAM))
		}
		t.row(cells...)
		t2.row(cells2...)
	}
	out += "part a) normalized cycles (vs Layerwise)\n" + t.String()
	out += "part b) normalized DRAM access\n" + t2.String()
	s := newTable("dataflow", "geomean speedup vs Layerwise", "paper")
	paper := map[string]string{"Fused-Layer": "1.01x", "ISOS": "<1x", "TileFlow": "1.59x"}
	for _, name := range ConvDataflowNames[1:] {
		s.row(name, fmt.Sprintf("%.2fx", r.Speedups[name]), paper[name])
	}
	return out + "summary\n" + s.String()
}
