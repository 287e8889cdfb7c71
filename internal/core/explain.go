package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/workload"
)

// NodeReport profiles one tile of an evaluated analysis tree: where its
// data comes from, how much moves, and what bounds its latency.
type NodeReport struct {
	Name    string
	Level   int
	Depth   int
	IsLeaf  bool
	Binding Binding

	// Invocations is how many times the tile executes in total.
	Invocations float64
	// FillWords/UpdateWords cross the tile's upper boundary over the
	// whole run.
	FillWords, UpdateWords float64
	// LatencyPerExec decomposes one execution (the Sec 5.3 recursion).
	LoadCycles, InnerCycles, StoreCycles float64
	// Bound names the max() winner: "load", "compute" or "store".
	Bound string
}

// Explain evaluates the dataflow and returns a per-node profile in
// pre-order, for the "architecture analysis" use the paper's Fig 3 lists.
// It shares all analysis state with Evaluate.
func Explain(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) ([]NodeReport, error) {
	p, err := Compile(root, g, spec)
	if err != nil {
		return nil, err
	}
	return p.Explain(opts)
}

// Explain profiles the Program's bound tree node by node. Like Evaluate it
// runs on a pooled scratch arena, so concurrent calls are safe.
func (p *Program) Explain(opts Options) ([]NodeReport, error) {
	t := p.t
	s := p.getScratch()
	defer p.putScratch(s)
	e := &evaluator{ctx: context.Background(), p: p, t: t, opts: opts, s: s}
	s.reset()
	x := e.rules()
	defer x.unbind()
	if err := x.check(phaseTiling, nil); err != nil {
		return nil, err
	}
	if err := e.accountDataMovement(); err != nil {
		return nil, err
	}

	reports := make([]NodeReport, 0, len(t.nodeSet))
	var visit func(id, depth int)
	visit = func(id, depth int) {
		n := t.nodeSet[id]
		inv := t.relevantInvocations(id)
		bw := e.effBandwidth(id)
		load, store := 0.0, 0.0
		if inv > 0 && bw > 0 && !math.IsInf(bw, 1) {
			load = s.nodeFill[id] / inv / bw
			store = s.nodeUpdate[id] / inv / bw
		}
		var inner float64
		if n.IsLeaf() {
			inner = float64(n.TemporalTrips()) * e.leafIterCost(n) * p.opDensity[id]
		} else {
			for _, c := range t.st.children[id] {
				lc := e.latency(c, false) * e.temporalRepeats(id, c)
				if n.Binding.Spatial() {
					if lc > inner {
						inner = lc
					}
				} else {
					inner += lc
				}
			}
		}
		bound := "compute"
		if load >= inner && load >= store {
			bound = "load"
		} else if store >= inner && store >= load {
			bound = "store"
		}
		reports = append(reports, NodeReport{
			Name: n.Name, Level: n.Level, Depth: depth,
			IsLeaf: n.IsLeaf(), Binding: n.Binding,
			Invocations: inv,
			FillWords:   s.nodeFill[id], UpdateWords: s.nodeUpdate[id],
			LoadCycles: load, InnerCycles: inner, StoreCycles: store,
			Bound: bound,
		})
		for _, c := range t.st.children[id] {
			visit(c, depth+1)
		}
	}
	visit(0, 0)
	return reports, nil
}

// RenderReports prints the profile as an indented table.
func RenderReports(reports []NodeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-5s %-5s %10s %12s %12s %10s %10s %10s %-7s\n",
		"tile", "level", "bind", "invocs", "fill(words)", "upd(words)", "load/exec", "inner/exec", "store/exec", "bound")
	for _, r := range reports {
		name := strings.Repeat("  ", r.Depth) + r.Name
		bind := r.Binding.String()
		if r.IsLeaf {
			bind = "leaf"
		}
		fmt.Fprintf(&b, "%-28s L%-4d %-5s %10.4g %12.4g %12.4g %10.4g %10.4g %10.4g %-7s\n",
			name, r.Level, bind, r.Invocations, r.FillWords, r.UpdateWords,
			r.LoadCycles, r.InnerCycles, r.StoreCycles, r.Bound)
	}
	return b.String()
}
