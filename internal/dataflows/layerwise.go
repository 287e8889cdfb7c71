package dataflows

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// layerwise is the no-fusion baseline of Table 5: every operator is mapped
// to the whole accelerator on its own, so every intermediate tensor spills
// to DRAM (its least common ancestor is the DRAM-level root).
type layerwise struct {
	name string
	g    *workload.Graph
	spec *arch.Spec
	// coreDim is split spatially across cores, subDim across sub-cores
	// (Cloud), chunkDim temporally at the per-op top node.
	coreDim, subDim, chunkDim string
	// spatialOf picks each operator's leaf spatial dims.
	spatialOf func(op *workload.Operator) []string
	// aggregate maps leaf spatial dims onto the whole-chip array instead
	// of one sub-core mesh (the convolution channel mapping), with no
	// core/sub-core splits.
	aggregate bool
}

// LayerwiseAttention is the Layerwise baseline for self-attention.
func LayerwiseAttention(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &layerwise{
		name: "Layerwise", g: workload.Attention(s), spec: spec,
		coreDim: "h", subDim: "m", chunkDim: "m",
		spatialOf: attentionLeafSpatial,
	}
}

// LayerwiseConv is the Layerwise baseline for convolution chains: each
// convolution maps its channel parallelism onto the aggregate array, one
// operator at a time (so a single conv cannot fill the chip — the
// utilization gap the pipelined fusion dataflow closes).
func LayerwiseConv(s workload.ConvChainShape, spec *arch.Spec) Dataflow {
	return &layerwise{
		name: "Layerwise", g: workload.ConvChain(s), spec: spec,
		chunkDim: "h", spatialOf: convLeafSpatial, aggregate: true,
	}
}

// Canonical spatial preferences per operator, package-level so filling a
// tree allocates none. Attention: Q×K maps (m,l) to the array, L×V maps
// (m,n), and the softmax operators map l onto the vector lanes.
// Convolution: output × input channels.
var (
	spatialQK      = []string{"m", "l"}
	spatialLV      = []string{"m", "n"}
	spatialSoftmax = []string{"l"}
	spatialConvLC  = []string{"l", "c"}
	spatialConvEL  = []string{"e", "l"}
)

func attentionLeafSpatial(op *workload.Operator) []string {
	switch op.Name {
	case "QK":
		return spatialQK
	case "LV":
		return spatialLV
	default:
		return spatialSoftmax
	}
}

// convLeafSpatial maps the channel dimensions onto the PE array (output
// channels × input channels), the standard spatial mapping for convolution
// engines; height/width parallelism lives at the core/sub-core splits.
func convLeafSpatial(op *workload.Operator) []string {
	if op.HasDim("l") && !op.IsReduction("l") {
		return spatialConvLC
	}
	return spatialConvEL
}

func (d *layerwise) Name() string           { return d.name }
func (d *layerwise) Graph() *workload.Graph { return d.g }

// StructureStable: one subtree per operator in graph order, independent of
// the factor assignment.
func (d *layerwise) StructureStable() bool { return true }

func (d *layerwise) Factors() []FactorSpec {
	fs := []FactorSpec{
		{Key: "t", Total: d.g.DimSize(d.chunkDim), Doc: "temporal tiles of " + d.chunkDim + " per operator"},
	}
	if d.coreDim != "" {
		fs = append(fs, FactorSpec{Key: "sp_c", Total: d.g.DimSize(d.coreDim), Doc: "spatial split of " + d.coreDim + " across cores"})
	}
	if d.subDim != "" && d.spec.NumLevels() >= 4 {
		fs = append(fs, FactorSpec{Key: "sp_s", Total: d.g.DimSize(d.subDim), Doc: "spatial split of " + d.subDim + " across sub-cores"})
	}
	return fs
}

func (d *layerwise) DefaultFactors() map[string]int {
	f := map[string]int{}
	if d.coreDim != "" {
		f["sp_c"] = DivisorAtMost(d.g.DimSize(d.coreDim), d.spec.Levels[d.spec.DRAMLevel()].Fanout)
	}
	if d.subDim != "" && d.spec.NumLevels() >= 4 {
		f["sp_s"] = DivisorAtMost(d.g.DimSize(d.subDim), d.spec.Levels[2].Fanout)
	}
	total := d.g.DimSize(d.chunkDim)
	f["t"] = DivisorNear(total, max(1, total/64))
	return f
}

// Build implements Dataflow: one subtree per operator under the DRAM root,
// allocated once and filled for f.
func (d *layerwise) Build(f map[string]int) (*core.Node, error) {
	root := d.newTree()
	if err := d.fill(root, f); err != nil {
		return nil, err
	}
	return root, nil
}

// Refill implements Refiller.
func (d *layerwise) Refill(dst *core.Node, f map[string]int) error { return d.fill(dst, f) }

func (d *layerwise) cloud() bool { return d.spec.NumLevels() >= 4 }

// newTree allocates the template's tree, every loop nest empty at its
// longest: per operator, a top on-chip node with the core split and the
// temporal chunking, (on Cloud) an L1 node with the sub-core split, then
// the leaf.
func (d *layerwise) newTree() *core.Node {
	cloud := d.cloud()
	nodes, loops := 1, 0
	for _, op := range d.g.Ops {
		nodes, loops = nodes+2, loops+2+leafLoopCap(op)
		if cloud {
			nodes, loops = nodes+1, loops+1
		}
	}
	// Edge has no L2 node: its L1 node is the top one.
	l1Loops := 2
	if cloud {
		l1Loops = 1
	}
	s := newTreeSlab(nodes, loops)
	root := s.node(d.name, d.spec.DRAMLevel(), core.Seq, nil, 0, len(d.g.Ops))
	for _, op := range d.g.Ops {
		top := s.node(op.Name+"@L1", 1, core.Seq, nil, l1Loops, 1)
		top.Children = append(top.Children, s.node(op.Name, 0, core.Seq, op, leafLoopCap(op), 0))
		if cloud {
			l2 := s.node(op.Name+"@L2", 2, core.Seq, nil, 2, 1)
			l2.Children = append(l2.Children, top)
			top = l2
		}
		root.Children = append(root.Children, top)
	}
	return root
}

// fill computes every node's loops for f into a tree newTree allocated.
func (d *layerwise) fill(root *core.Node, f map[string]int) error {
	r := factorReader{f: f}
	spC := 1
	if d.coreDim != "" {
		spC = r.get("sp_c", d.g.DimSize(d.coreDim))
	}
	t := r.get("t", d.g.DimSize(d.chunkDim))
	spS := 1
	if d.subDim != "" && d.cloud() {
		spS = r.get("sp_s", d.g.DimSize(d.subDim))
	}
	if r.err != nil {
		return r.err
	}
	for i, op := range d.g.Ops {
		if err := d.fillOp(root.Children[i], op, spC, spS, t); err != nil {
			return err
		}
	}
	return nil
}

// fillOp maps one operator onto the whole accelerator: the top node
// carries the spatial core split and the temporal chunking, the Cloud L1
// node the sub-core split.
func (d *layerwise) fillOp(top *core.Node, op *workload.Operator, spC, spS, t int) error {
	var outer outerProds
	l1 := top
	if d.cloud() {
		l1 = top.Children[0]
	}
	top.Loops, l1.Loops = top.Loops[:0], l1.Loops[:0]
	if d.coreDim != "" && op.HasDim(d.coreDim) && spC > 1 {
		if op.DimSize(d.coreDim)%spC != 0 {
			return fmt.Errorf("layerwise %s: sp_c=%d does not divide %s", op.Name, spC, d.coreDim)
		}
		top.Loops = append(top.Loops, core.S(d.coreDim, spC))
		outer.mul(d.coreDim, spC)
	}
	if op.HasDim(d.chunkDim) && t > 1 {
		prev := outer.of(d.chunkDim)
		if prev == 0 {
			prev = 1
		}
		if op.DimSize(d.chunkDim)%(prev*t) != 0 {
			return fmt.Errorf("layerwise %s: t=%d does not divide %s", op.Name, t, d.chunkDim)
		}
		top.Loops = append(top.Loops, core.T(d.chunkDim, t))
		outer.mul(d.chunkDim, t)
	}
	if l1 != top && d.subDim != "" && op.HasDim(d.subDim) && spS > 1 {
		prev := outer.of(d.subDim)
		if prev == 0 {
			prev = 1
		}
		if op.DimSize(d.subDim)%(prev*spS) != 0 {
			return fmt.Errorf("layerwise %s: sp_s=%d does not divide %s", op.Name, spS, d.subDim)
		}
		l1.Loops = append(l1.Loops, core.S(d.subDim, spS))
		outer.mul(d.subDim, spS)
	}
	var remBuf [8]int
	rem, err := remaining(remBuf[:0], op, &outer)
	if err != nil {
		return fmt.Errorf("layerwise %s: %w", op.Name, err)
	}
	leaf := l1.Children[0]
	if d.aggregate {
		aggX, aggY := d.spec.AggregateMesh()
		leaf.Loops = leafLoopsCapped(leaf.Loops[:0], op, d.spec, rem, d.spatialOf(op), aggX*aggY, aggX, aggY, nil)
	} else {
		leaf.Loops = leafLoops(leaf.Loops[:0], op, d.spec, rem, d.spatialOf(op), 0, nil)
	}
	return nil
}
