package experiments

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// Trace is one best-so-far exploration trace, normalized to its final value
// like the Fig 9 plots (higher is closer to converged).
type Trace struct {
	Label  string
	Cycles []float64
}

// Normalized returns best-final/best-so-far per round, the paper's
// "normalized performance" axis (1.0 = converged).
func (t Trace) Normalized() []float64 {
	out := make([]float64, len(t.Cycles))
	final := t.Cycles[len(t.Cycles)-1]
	for i, c := range t.Cycles {
		if c > 0 {
			out[i] = final / c
		}
	}
	return out
}

// Fig9aResult is the tiling-factor tuning experiment: the MCTS trace for
// each Table 5 dataflow on Bert-S / Edge.
type Fig9aResult struct {
	Traces []Trace
}

// Fig9a runs the factor-tuning traces.
func Fig9a(cfg Config) (*Fig9aResult, error) {
	spec := arch.Edge()
	shape, _ := workload.AttentionShapeByName("Bert-S")
	res := &Fig9aResult{}
	for _, name := range AttentionDataflowNames {
		df := dataflows.AttentionCatalog.New(name, shape, spec)
		s := &mapper.TileSearch{Dataflow: df, Spec: spec, Rounds: cfg.rounds(), Seed: cfg.Seed + 11}
		best, trace := s.Run()
		if best == nil {
			continue
		}
		res.Traces = append(res.Traces, Trace{Label: name, Cycles: trace})
	}
	return res, nil
}

// Render prints sampled points of each trace.
func (r *Fig9aResult) Render() string {
	return renderTraces("Fig 9a — tiling-factor tuning traces (Bert-S, Edge)", r.Traces)
}

// Fig9bcResult is the full 3D-space exploration: GA over ordering/binding
// with MCTS tiling per individual.
type Fig9bcResult struct {
	Title  string
	Traces []Trace
	// BestEncodings records the winning ordering/binding per workload.
	BestEncodings map[string]string
}

// Fig9b runs the 3D-space exploration for the self-attention shapes on
// Edge.
func Fig9b(cfg Config) (*Fig9bcResult, error) {
	spec := arch.Edge()
	res := &Fig9bcResult{Title: "Fig 9b — 3D-space tuning, self-attention (Edge)", BestEncodings: map[string]string{}}
	gens := 12
	if cfg.Quick {
		gens = 6
	}
	for _, shape := range cfg.attentionShapes() {
		g := workload.Attention(shape)
		s := &mapper.TreeSearch{
			G: g, Spec: spec,
			Population: 12, Generations: gens, TileRounds: 40,
			Seed: cfg.Seed + int64(hash(shape.Name)),
		}
		out := s.Run()
		if out.Best == nil {
			continue
		}
		res.Traces = append(res.Traces, Trace{Label: shape.Name, Cycles: out.Trace})
		res.BestEncodings[shape.Name] = out.Encoding.String()
	}
	return res, nil
}

// Fig9c runs the 3D-space exploration for the convolution chains on Cloud.
func Fig9c(cfg Config) (*Fig9bcResult, error) {
	spec := arch.Cloud()
	res := &Fig9bcResult{Title: "Fig 9c — 3D-space tuning, conv chains (Cloud)", BestEncodings: map[string]string{}}
	gens := 12
	if cfg.Quick {
		gens = 6
	}
	for _, shape := range cfg.convShapes() {
		g := workload.ConvChain(shape)
		s := &mapper.TreeSearch{
			G: g, Spec: spec,
			Population: 12, Generations: gens, TileRounds: 40,
			Seed: cfg.Seed + int64(hash(shape.Name)),
		}
		out := s.Run()
		if out.Best == nil {
			continue
		}
		res.Traces = append(res.Traces, Trace{Label: shape.Name, Cycles: out.Trace})
		res.BestEncodings[shape.Name] = out.Encoding.String()
	}
	return res, nil
}

// Render prints traces plus the discovered orderings.
func (r *Fig9bcResult) Render() string {
	out := renderTraces(r.Title, r.Traces)
	t := newTable("workload", "best ordering/binding encoding")
	for _, k := range sortedKeys(r.BestEncodings) {
		t.row(k, r.BestEncodings[k])
	}
	return out + "discovered dataflows\n" + t.String()
}

func renderTraces(title string, traces []Trace) string {
	if len(traces) == 0 {
		return title + "\n(no traces)\n"
	}
	t := newTable(append([]string{"round"}, tracesHeader(traces)...)...)
	n := len(traces[0].Cycles)
	samples := []int{0, n / 8, n / 4, n / 2, 3 * n / 4, n - 1}
	seen := map[int]bool{}
	for _, i := range samples {
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		cells := []string{fmt.Sprintf("%d", i+1)}
		for _, tr := range traces {
			norm := tr.Normalized()
			j := i
			if j >= len(norm) {
				j = len(norm) - 1
			}
			cells = append(cells, fmt.Sprintf("%.3f", norm[j]))
		}
		t.row(cells...)
	}
	return title + " (normalized performance, 1.0 = converged)\n" + t.String()
}

func tracesHeader(traces []Trace) []string {
	var out []string
	for _, t := range traces {
		out = append(out, t.Label)
	}
	return out
}
