package dataflows

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// fusedConv is the shared template behind the convolution-chain fusion
// dataflows of Table 5: Fused-Layer (height and width tiled), ISOS (only
// width tiled) and the TileFlow conv dataflow (the two convolutions
// pipelined with the channel dimension tiled as well). The intermediate
// activation tensor is confined at the fused stage, so its halo reads stay
// on chip.
type fusedConv struct {
	name    string
	shape   workload.ConvChainShape
	spec    *arch.Spec
	g       *workload.Graph
	outer   []string // dims tiled at the outer level (subset of h, w, l)
	binding core.Binding
	// tKeys and outerSizes are "t_"+outer[i] and its dim size, so a fill
	// builds no strings.
	tKeys      []string
	outerSizes []int
}

func newFusedConv(name string, s workload.ConvChainShape, spec *arch.Spec, outer []string, binding core.Binding) *fusedConv {
	d := &fusedConv{name: name, shape: s, spec: spec, g: workload.ConvChain(s), outer: outer, binding: binding}
	for _, dim := range outer {
		d.tKeys = append(d.tKeys, "t_"+dim)
		d.outerSizes = append(d.outerSizes, d.g.DimSize(dim))
	}
	return d
}

// FusedLayer fuses the two convolutions with the height and width
// dimensions tiled (Alwani et al., the Fused-Layer dataflow).
func FusedLayer(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return newFusedConv("Fused-Layer", s, spec, []string{"h", "w"}, core.Seq)
}

// ISOS fuses the two convolutions with only the width dimension tiled
// (ISOSceles; designed for sparse CNNs, evaluated dense here as in the
// paper).
func ISOS(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return newFusedConv("ISOS", s, spec, []string{"w"}, core.Seq)
}

// TileFlowConv is the dataflow TileFlow's mapper discovers for convolution
// chains (Sec 7.2): the two convolutions pipelined with the shared channel
// dimension tiled alongside height and width.
func TileFlowConv(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return newFusedConv("TileFlow", s, spec, []string{"h", "w", "l"}, core.Pipe)
}

func (d *fusedConv) Name() string           { return d.name }
func (d *fusedConv) Graph() *workload.Graph { return d.g }

func (d *fusedConv) hasOuter(dim string) bool {
	for _, o := range d.outer {
		if o == dim {
			return true
		}
	}
	return false
}

func (d *fusedConv) coreDim() string {
	for _, pref := range []string{"h", "w", "l"} {
		if d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedConv) subDim() string {
	cd := d.coreDim()
	for _, pref := range []string{"w", "h", "l"} {
		if pref != cd && d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedConv) Factors() []FactorSpec {
	var fs []FactorSpec
	for _, dim := range d.outer {
		fs = append(fs, FactorSpec{Key: "t_" + dim, Total: d.g.DimSize(dim),
			Doc: "temporal tiles of " + dim + " at the outer level"})
	}
	return fs
}

func (d *fusedConv) DefaultFactors() map[string]int {
	f := map[string]int{}
	for _, dim := range d.outer {
		total := d.g.DimSize(dim)
		f["t_"+dim] = DivisorNear(total, max(1, total/16))
	}
	return f
}

// Build implements Dataflow: the fused stage under the DRAM root (and on
// Cloud an L2 mid node), allocated once and filled for f.
func (d *fusedConv) Build(f map[string]int) (*core.Node, error) {
	root := d.newTree()
	if err := d.fill(root, f); err != nil {
		return nil, err
	}
	return root, nil
}

// Refill implements Refiller.
func (d *fusedConv) Refill(dst *core.Node, f map[string]int) error { return d.fill(dst, f) }

func (d *fusedConv) cloud() bool { return d.spec.NumLevels() >= 4 }

// newTree allocates the template's tree, every loop nest empty at its
// longest: one granularity loop per outer dim at the Cloud mid node or the
// Edge stage node.
func (d *fusedConv) newTree() *core.Node {
	gran := len(d.outer)
	nodes, loops := 2+len(d.g.Ops), gran
	for _, op := range d.g.Ops {
		loops += leafLoopCap(op)
	}
	if d.cloud() {
		nodes++
	}
	s := newTreeSlab(nodes, loops)
	root := s.node(d.name, d.spec.DRAMLevel(), core.Seq, nil, 0, 1)
	top := root
	stageLoops := gran
	if d.cloud() {
		top = s.node("mid", 2, core.Seq, nil, gran, 1)
		root.Children = append(root.Children, top)
		stageLoops = 0
	}
	stage := s.node("stage", 1, d.binding, nil, stageLoops, len(d.g.Ops))
	top.Children = append(top.Children, stage)
	for _, op := range d.g.Ops {
		stage.Children = append(stage.Children, s.node(op.Name, 0, core.Seq, op, leafLoopCap(op), 0))
	}
	return root
}

// fill computes every node's loops for f into a tree newTree allocated.
func (d *fusedConv) fill(root *core.Node, f map[string]int) error {
	r := factorReader{f: f}
	var outer outerProds
	// Convolution parallelism comes from the channel dimensions mapped
	// spatially at the leaves (spanning sub-cores up to the aggregate
	// array); height/width tiling provides on-chip staging only.
	// Granularity loops stay on chip: at the L2 mid node on Cloud, at the
	// L1 stage on Edge (see the attention template for the rationale).
	gran := root.Children[0]
	stage := gran
	if d.cloud() {
		stage = gran.Children[0]
	}
	gran.Loops = gran.Loops[:0]
	for i, dim := range d.outer {
		v := r.get(d.tKeys[i], d.outerSizes[i])
		if v > 1 {
			gran.Loops = append(gran.Loops, core.T(dim, v))
		}
		outer.mul(dim, v)
	}
	if r.err != nil {
		return r.err
	}
	for i := 0; i < outer.n; i++ {
		if dim, p := outer.dims[i], outer.prod[i]; d.g.DimSize(dim)%p != 0 {
			return fmt.Errorf("dataflow %s: outer factors %d do not divide %s=%d", d.name, p, dim, d.g.DimSize(dim))
		}
	}

	aggX, aggY := d.spec.AggregateMesh()
	budget := aggX * aggY
	if d.binding.Spatial() {
		// Concurrent stages partition the aggregate array; each claims its
		// channel extents, which by construction fit side by side (the
		// array edges bound each factor).
		budget = aggX * aggY / len(d.g.Ops)
	}
	var remBuf [8]int
	for _, leaf := range stage.Children {
		op := leaf.Op
		rem, err := remaining(remBuf[:0], op, &outer)
		if err != nil {
			return fmt.Errorf("dataflow %s, op %s: %w", d.name, op.Name, err)
		}
		leaf.Loops = leafLoopsCapped(leaf.Loops[:0], op, d.spec, rem, convLeafSpatial(op), budget, aggX, aggY, nil)
	}
	return nil
}
