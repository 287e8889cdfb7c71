package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// EnergyBreakdownRow is one bar of Fig 13: the energy split of FLAT-RGran
// on Edge for one shape and one L1 capacity.
type EnergyBreakdownRow struct {
	Shape   string
	L1      string
	MACPct  float64
	RegPct  float64
	L1Pct   float64
	DRAMPct float64
}

// Fig13 evaluates FLAT-RGran on Edge with 200 KB and 1 MB L1 buffers and
// reports the energy breakdown (the paper: with the small L1, ~46.5% of
// energy is L1 access and 33.3% DRAM; with the large L1, ~80.1% is L1).
func Fig13(cfg Config) ([]EnergyBreakdownRow, error) {
	var rows []EnergyBreakdownRow
	shapes := cfg.attentionShapes()
	if !cfg.Quick {
		shapes = shapes[:9] // Bert + ViT families as in the figure
	}
	for _, l1 := range []struct {
		name  string
		bytes int64
	}{{"200KB", 200 * 1024}, {"1MB", 1024 * 1024}} {
		spec := arch.Edge().WithLevelCapacity("L1", l1.bytes)
		for _, shape := range shapes {
			df := dataflows.AttentionCatalog.New("FLAT-RGran", shape, spec)
			ev := cfg.tune(df, spec, core.Options{})
			if ev == nil {
				continue
			}
			bd := ev.Result.Energy
			total := bd.TotalPJ()
			if total <= 0 {
				continue
			}
			rows = append(rows, EnergyBreakdownRow{
				Shape:   shape.Name,
				L1:      l1.name,
				MACPct:  100 * bd.ComputePJ / total,
				RegPct:  100 * bd.PerLevelPJ[0] / total,
				L1Pct:   100 * bd.PerLevelPJ[1] / total,
				DRAMPct: 100 * bd.PerLevelPJ[2] / total,
			})
		}
	}
	return rows, nil
}

// RenderFig13 prints the breakdown table.
func RenderFig13(rows []EnergyBreakdownRow) string {
	t := newTable("shape", "L1 size", "MAC%", "Reg%", "L1%", "DRAM%")
	for _, r := range rows {
		t.row(r.Shape, r.L1,
			fmt.Sprintf("%.1f", r.MACPct), fmt.Sprintf("%.1f", r.RegPct),
			fmt.Sprintf("%.1f", r.L1Pct), fmt.Sprintf("%.1f", r.DRAMPct))
	}
	return "Fig 13 — FLAT-RGran energy breakdown on Edge (paper: 200KB -> ~46.5% L1 / 33.3% DRAM; 1MB -> ~80.1% L1 / 12.3% DRAM)\n" + t.String()
}

// BandwidthPoint is one sample of the Fig 14 sweep.
type BandwidthPoint struct {
	BWGBs    float64
	SlowDown float64
}

// BandwidthTrace is one dataflow's slow-down curve for one conv chain.
type BandwidthTrace struct {
	Chain    string
	Dataflow string
	Points   []BandwidthPoint
	// SuitableBW is the minimal L1 bandwidth with slow-down 1 (the
	// paper's "suitable bandwidth").
	SuitableBW float64
}

// Fig14 sweeps the Edge L1 bandwidth from 1 GB/s to 1200 GB/s and records
// the slow-down metric of Sec 7.5 for CC1 and CC2 under Fused-Layer, ISOS
// and the TileFlow conv dataflow.
func Fig14(cfg Config) ([]BandwidthTrace, error) {
	chains := []string{"CC1", "CC2"}
	flows := []string{"Fused-Layer", "ISOS", "TileFlow"}
	bws := []float64{1, 30, 60, 96, 120, 180, 240, 360, 480, 600, 720, 840, 960, 1080, 1200}
	if cfg.Quick {
		bws = []float64{1, 60, 240, 720, 1200}
	}
	var out []BandwidthTrace
	for _, chain := range chains {
		shape, _ := workload.ConvChainShapeByName(chain)
		for _, flow := range flows {
			// Tune factors once at the stock bandwidth, then sweep: the
			// dataflow stays fixed while the architecture changes, as
			// in the paper's sensitivity study.
			base := arch.Edge()
			df := dataflows.ConvCatalog.New(flow, shape, base)
			ev := cfg.tune(df, base, core.Options{})
			if ev == nil {
				continue
			}
			tr := BandwidthTrace{Chain: chain, Dataflow: flow}
			root, err := df.Build(ev.Factors)
			if err != nil {
				return nil, err
			}
			for _, bw := range bws {
				spec := base.WithLevelBandwidth("L1", bw)
				res, err := core.Evaluate(root, df.Graph(), spec, core.Options{})
				if err != nil {
					continue
				}
				sd := res.SlowDown[1]
				tr.Points = append(tr.Points, BandwidthPoint{BWGBs: bw, SlowDown: sd})
				if tr.SuitableBW == 0 && sd <= 1.0001 {
					tr.SuitableBW = bw
				}
			}
			out = append(out, tr)
		}
	}
	return out, nil
}

// RenderFig14 prints the slow-down curves and suitable bandwidths.
func RenderFig14(traces []BandwidthTrace) string {
	t := newTable("chain", "dataflow", "slow-down @60GB/s", "@240", "@720", "@1200", "suitable BW")
	for _, tr := range traces {
		get := func(bw float64) string {
			for _, p := range tr.Points {
				if p.BWGBs == bw {
					return fmt.Sprintf("%.2f", p.SlowDown)
				}
			}
			return "-"
		}
		suit := "-"
		if tr.SuitableBW > 0 {
			suit = fmt.Sprintf("%.0f GB/s", tr.SuitableBW)
		}
		t.row(tr.Chain, tr.Dataflow, get(60), get(240), get(720), get(1200), suit)
	}
	return "Fig 14 — L1 bandwidth sensitivity on Edge (paper: Fused-Layer/ISOS suitable at ~96 GB/s; TileFlow needs 720-1080 GB/s)\n" + t.String()
}
