package dataflows

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// fusedAttention is the shared template behind Uni-pipe, the four FLAT
// granularities, Chimera and the TileFlow dataflow: self-attention with the
// softmax expanded to five operators, fused at the innermost on-chip level,
// with a configurable set of outer-tiled dimensions (the FLAT granularity
// axis), a configurable inter-tile binding among the fused stages, and an
// optional exclusion of L×V from the fusion.
type fusedAttention struct {
	name  string
	shape workload.AttentionShape
	spec  *arch.Spec
	g     *workload.Graph
	outer []string // dims tiled at outer levels, in loop order
	// stageDims are iterated temporally at the fused stage node itself:
	// the stage stages one chunk of them at a time without any outer
	// (DRAM-level) tiling or parallelization. Uni-pipe processes heads
	// this way.
	stageDims []string
	binding   core.Binding
	fuseLV    bool

	// prepOnce/prep lazily cache every factor-independent derivation Build
	// needs (dim sizes, core/sub splits, factor keys, the fused operator
	// list and its mesh budget), so the mapper's per-candidate Build does
	// no graph scans or string concatenation. One Dataflow is shared across
	// the GA's parallel fitness workers, hence the Once.
	prepOnce sync.Once
	prep     *attnPrep
}

// attnPrep is the factor-independent precomputation behind Build.
type attnPrep struct {
	cd, sd         string
	cdSize, sdSize int
	cloud          bool
	size           map[string]int // graph dim name -> size
	tKeys          []string       // "t_"+outer[i], parallel to outer
	outerSizes     []int          // dim size of outer[i]
	hasM           bool           // hasOuter("m")
	mSize          int
	stageSizes     []int // dim size of stageDims[i]
	fusedOps       []*workload.Operator
	// leafRed[i] is fusedOps[i]'s is-reduction mask parallel to its Dims,
	// fed to leafLoops so per-candidate builds skip the recomputation;
	// lvRed is L×V's, for its leaf outside the fusion.
	leafRed [][]bool
	lvOp    *workload.Operator
	lvRed   []bool
	budget  int
}

// reductionMask is op's is-reduction flag per dim, parallel to op.Dims.
func reductionMask(op *workload.Operator) []bool {
	red := make([]bool, len(op.Dims))
	for i, dim := range op.Dims {
		red[i] = op.IsReduction(dim.Name)
	}
	return red
}

// prepare computes (once) and returns the Build-path cache.
func (d *fusedAttention) prepare() *attnPrep {
	d.prepOnce.Do(func() {
		p := &attnPrep{
			cd:    d.coreDim(),
			sd:    d.subDim(),
			cloud: d.cloud(),
			size:  map[string]int{},
			hasM:  d.hasOuter("m"),
		}
		for _, dim := range d.g.AllDims() {
			// DimSize, not dim.Size: the graph-wide maximum is what every
			// d.dimSize call this cache replaces returned.
			p.size[dim.Name] = d.g.DimSize(dim.Name)
		}
		p.cdSize, p.sdSize = p.size[p.cd], p.size[p.sd]
		p.mSize = p.size["m"]
		for _, dim := range d.outer {
			p.tKeys = append(p.tKeys, "t_"+dim)
			p.outerSizes = append(p.outerSizes, p.size[dim])
		}
		for _, dim := range d.stageDims {
			p.stageSizes = append(p.stageSizes, p.size[dim])
		}
		fused := []string{"QK", "RowMax", "Sub", "Exp", "RowSum", "Div"}
		if d.fuseLV {
			fused = append(fused, "LV")
		}
		for _, name := range fused {
			op := d.g.Op(name)
			p.fusedOps = append(p.fusedOps, op)
			p.leafRed = append(p.leafRed, reductionMask(op))
		}
		p.lvOp = d.g.Op("LV")
		p.lvRed = reductionMask(p.lvOp)
		p.budget = macLeafBudget(d.spec, d.binding, p.fusedOps)
		d.prep = p
	})
	return d.prep
}

// Attention dataflow constructors (Table 5). The granularity ladder follows
// FLAT: MGran tiles nothing (the whole intermediate is staged), BGran tiles
// batch, HGran tiles batch and heads, RGran tiles batch, heads and rows.
// Chimera tiles every dimension but keeps L×V out of the fusion; the
// TileFlow dataflow pipelines all three stages with all loops tiled
// (Sec 7.2: "pipeline all the three computation stages ... with all the
// loops tiled").

// UniPipe pipelines Q×K and softmax without tiling heads or rows: batch and
// heads advance temporally at the fused stage, so there is no outer-level
// parallelism (the low-utilization dataflow of Fig 11).
func UniPipe(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "Uni-pipe", shape: s, spec: spec, g: workload.Attention(s),
		outer: nil, stageDims: []string{"b", "h"}, binding: core.Pipe, fuseLV: false}
}

// FLATMGran fuses all three stages with no outer tiling.
func FLATMGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-MGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: nil, binding: core.Seq, fuseLV: true}
}

// FLATBGran fuses all three stages and tiles the batch dimension.
func FLATBGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-BGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b"}, binding: core.Seq, fuseLV: true}
}

// FLATHGran fuses all three stages and tiles batch and heads (Fig 2a).
func FLATHGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-HGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h"}, binding: core.Seq, fuseLV: true}
}

// FLATRGran fuses all three stages and tiles batch, heads and rows.
func FLATRGran(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "FLAT-RGran", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m"}, binding: core.Seq, fuseLV: true}
}

// Chimera fuses Q×K with softmax and tiles every dimension.
func Chimera(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "Chimera", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m", "l"}, binding: core.Seq, fuseLV: false}
}

// TileFlowAttention is the dataflow the TileFlow mapper discovers (Sec 7.2):
// all three stages pipelined, all loops tiled.
func TileFlowAttention(s workload.AttentionShape, spec *arch.Spec) Dataflow {
	return &fusedAttention{name: "TileFlow", shape: s, spec: spec, g: workload.Attention(s),
		outer: []string{"b", "h", "m", "n", "l"}, binding: core.Pipe, fuseLV: true}
}

// CustomAttention builds a fused attention dataflow with an explicit
// granularity (outer-tiled dims), inter-tile binding and fusion scope, for
// ablation studies over the 3D design space's binding axis.
func CustomAttention(name string, s workload.AttentionShape, spec *arch.Spec, outer []string, binding core.Binding, fuseLV bool) Dataflow {
	return &fusedAttention{name: name, shape: s, spec: spec, g: workload.Attention(s),
		outer: outer, binding: binding, fuseLV: fuseLV}
}

func (d *fusedAttention) Name() string           { return d.name }
func (d *fusedAttention) Graph() *workload.Graph { return d.g }

func (d *fusedAttention) hasOuter(dim string) bool {
	for _, o := range d.outer {
		if o == dim {
			return true
		}
	}
	return false
}

// coreDim picks the dimension split spatially across cores; subDim the one
// split across sub-cores (Cloud only).
func (d *fusedAttention) coreDim() string {
	for _, pref := range []string{"h", "b", "m"} {
		if d.hasOuter(pref) {
			return pref
		}
	}
	return ""
}

func (d *fusedAttention) subDim() string {
	cd := d.coreDim()
	for _, pref := range []string{"m", "h", "l", "b"} {
		if pref != cd && d.hasOuter(pref) && d.dimSize(pref) > 1 {
			return pref
		}
	}
	// No second dimension to split: reuse the core dimension across
	// sub-cores too (FLAT-HGran spreads heads over both levels).
	return cd
}

func (d *fusedAttention) dimSize(dim string) int { return d.g.DimSize(dim) }

func (d *fusedAttention) cloud() bool { return d.spec.NumLevels() >= 4 }

// Factors implements Dataflow.
func (d *fusedAttention) Factors() []FactorSpec {
	var fs []FactorSpec
	for _, dim := range d.outer {
		fs = append(fs, FactorSpec{Key: "t_" + dim, Total: d.dimSize(dim),
			Doc: "temporal tiles of " + dim + " at the outer level"})
	}
	if cd := d.coreDim(); cd != "" {
		fs = append(fs, FactorSpec{Key: "sp_c", Total: d.dimSize(cd),
			Doc: "spatial split of " + cd + " across cores"})
	}
	if d.cloud() {
		if sd := d.subDim(); sd != "" {
			fs = append(fs, FactorSpec{Key: "sp_s", Total: d.dimSize(sd),
				Doc: "spatial split of " + sd + " across sub-cores"})
		}
		if d.hasOuter("m") {
			fs = append(fs, FactorSpec{Key: "u_m", Total: d.dimSize("m"),
				Doc: "temporal tiles of m at the L2 node"})
		}
	}
	return fs
}

// DefaultFactors implements Dataflow with a plausible untuned assignment:
// heads across cores, rows across sub-cores, modest row chunks.
func (d *fusedAttention) DefaultFactors() map[string]int {
	f := map[string]int{}
	cores := d.spec.Levels[d.spec.DRAMLevel()].Fanout
	if cd := d.coreDim(); cd != "" {
		f["sp_c"] = DivisorAtMost(d.dimSize(cd), cores)
	}
	if d.cloud() {
		if sd := d.subDim(); sd != "" {
			rem := d.dimSize(sd)
			if sd == d.coreDim() {
				rem /= max(1, f["sp_c"])
			}
			f["sp_s"] = DivisorAtMost(rem, d.spec.Levels[2].Fanout)
		}
	}
	// Batch and heads are fully consumed at the outer level: that is what
	// "tiling batch/multi_heads" means in the FLAT granularity ladder.
	for _, dim := range []string{"b", "h"} {
		if !d.hasOuter(dim) {
			continue
		}
		spent := 1
		if d.coreDim() == dim {
			spent *= max(1, f["sp_c"])
		}
		if d.subDim() == dim {
			spent *= max(1, f["sp_s"])
		}
		f["t_"+dim] = max(1, d.dimSize(dim)/spent)
	}
	if d.hasOuter("m") {
		// Stage blocks of ~64 rows.
		total := d.dimSize("m")
		spent := 1
		if d.subDim() == "m" {
			spent = max(1, f["sp_s"])
		} else if d.coreDim() == "m" {
			spent = max(1, f["sp_c"])
		}
		rem := total / spent
		f["t_m"] = DivisorNear(rem, max(1, rem/64))
	}
	if d.hasOuter("l") {
		f["t_l"] = DivisorNear(d.dimSize("l"), max(1, d.dimSize("l")/256))
	}
	return f
}

// Build implements Dataflow, assembling the tree:
//
//	root@DRAM {Sp(coreDim)}                       — spatial split only
//	  [Cloud: mid@L2 {T(granularity loops)}]      — L2 staging granularity
//	    stage@L1 {Sp(subDim), T(granularity)}     — L1 staging granularity
//	      the fused QK/softmax[/LV] leaves        — (binding)
//	  [unfused L×V subtree as a Seq sibling]
//
// The granularity loops (the FLAT b/h/m ladder plus Chimera/TileFlow's l/n
// tiling) live at the on-chip staging nodes, never at the DRAM root: tiling
// a reduction at the root would bounce partial sums off DRAM, and tiling
// rows there would defeat the staging the dataflow exists to provide. On
// Edge they all sit at the L1 stage; on Cloud they sit at the L2 mid node
// with u_m refining the L1 staging.
func (d *fusedAttention) Build(f map[string]int) (*core.Node, error) {
	root := d.newTree()
	if err := d.fill(root, f); err != nil {
		return nil, err
	}
	return root, nil
}

// Refill implements Refiller.
func (d *fusedAttention) Refill(dst *core.Node, f map[string]int) error { return d.fill(dst, f) }

// newTree allocates the template's tree, every loop nest empty at its
// longest: the root holds the core split; the Cloud mid node one loop per
// outer dim; the stage node the sub-core split, the granularity loops
// (Edge), u_m and one loop per stage dim. The unfused L×V subtree mirrors
// the mid and stage nodes.
func (d *fusedAttention) newTree() *core.Node {
	pp := d.prepare()
	gran := len(d.outer)
	stageCap := 2 + gran + len(d.stageDims)
	nodes, loops := 2+len(pp.fusedOps), 1+stageCap
	for _, op := range pp.fusedOps {
		loops += leafLoopCap(op)
	}
	if pp.cloud {
		nodes, loops = nodes+1, loops+gran
	}
	rootKids := 1
	if !d.fuseLV {
		rootKids = 2
		nodes, loops = nodes+2, loops+stageCap+leafLoopCap(pp.lvOp)
		if pp.cloud {
			nodes, loops = nodes+1, loops+gran
		}
	}
	s := newTreeSlab(nodes, loops)
	root := s.node(d.name, d.spec.DRAMLevel(), core.Seq, nil, 1, rootKids)
	top := root
	if pp.cloud {
		top = s.node("mid", 2, core.Seq, nil, gran, 1)
		root.Children = append(root.Children, top)
	}
	stage := s.node("stage", 1, d.binding, nil, stageCap, len(pp.fusedOps))
	top.Children = append(top.Children, stage)
	for _, op := range pp.fusedOps {
		stage.Children = append(stage.Children, s.node(op.Name, 0, core.Seq, op, leafLoopCap(op), 0))
	}
	if !d.fuseLV {
		top = root
		if pp.cloud {
			top = s.node("lv-mid", 2, core.Seq, nil, gran, 1)
			root.Children = append(root.Children, top)
		}
		lv := s.node("lv-stage", 1, core.Seq, nil, stageCap, 1)
		top.Children = append(top.Children, lv)
		lv.Children = append(lv.Children, s.node(pp.lvOp.Name, 0, core.Seq, pp.lvOp, leafLoopCap(pp.lvOp), 0))
	}
	return root
}

// fill computes every node's loops for f into a tree newTree allocated,
// rewriting each loop nest from empty.
func (d *fusedAttention) fill(root *core.Node, f map[string]int) error {
	pp := d.prepare()
	r := factorReader{f: f}
	var outer outerProds

	// gran takes the granularity loops: the Cloud mid node, or on Edge,
	// where there is no L2 node, the stage node itself.
	stage := root.Children[0]
	gran := stage
	if pp.cloud {
		stage = gran.Children[0]
	}
	root.Loops, gran.Loops, stage.Loops = root.Loops[:0], gran.Loops[:0], stage.Loops[:0]
	if cd := pp.cd; cd != "" {
		v := r.get("sp_c", pp.cdSize)
		if v > 1 {
			root.Loops = append(root.Loops, core.S(cd, v))
		}
		outer.mul(cd, v)
	}
	if sd := pp.sd; pp.cloud && sd != "" {
		v := r.get("sp_s", pp.sdSize)
		if v > 1 {
			stage.Loops = append(stage.Loops, core.S(sd, v))
		}
		outer.mul(sd, v)
	}
	for i, dim := range d.outer {
		v := r.get(pp.tKeys[i], pp.outerSizes[i])
		if v > 1 {
			gran.Loops = append(gran.Loops, core.T(dim, v))
		}
		outer.mul(dim, v)
	}
	if pp.cloud && pp.hasM {
		v := r.get("u_m", pp.mSize)
		if v > 1 {
			stage.Loops = append(stage.Loops, core.T("m", v))
		}
		outer.mul("m", v)
	}
	if r.err != nil {
		return r.err
	}
	// Divisibility of the combined products.
	for i := 0; i < outer.n; i++ {
		if dim, p := outer.dims[i], outer.prod[i]; pp.size[dim]%p != 0 {
			return fmt.Errorf("dataflow %s: outer factors %d do not divide %s=%d", d.name, p, dim, pp.size[dim])
		}
	}

	// Stage-consumed dims (Uni-pipe's untiled heads) advance temporally
	// at the innermost staging node, chunk by chunk, in full.
	for i, dim := range d.stageDims {
		sz := pp.stageSizes[i]
		o := outer.of(dim)
		if o == 0 {
			o = 1
		}
		if sz%o != 0 {
			return fmt.Errorf("dataflow %s: stage dim %s: outer %d does not divide %d", d.name, dim, o, sz)
		}
		if e := sz / o; e > 1 {
			stage.Loops = append(stage.Loops, core.T(dim, e))
			outer.mul(dim, e)
		}
	}

	// Leaves for the fused stage.
	for oi, leaf := range stage.Children {
		if err := d.fillLeaf(leaf, &outer, pp.budget, pp.leafRed[oi]); err != nil {
			return err
		}
	}
	if !d.fuseLV {
		return d.fillUnfusedLV(pp, root.Children[1], &outer, gran, stage)
	}
	return nil
}

// fillLeaf computes one operator's leaf loops with the canonical spatial
// dims per stage.
func (d *fusedAttention) fillLeaf(leaf *core.Node, outer *outerProds, budget int, red []bool) error {
	op := leaf.Op
	var remBuf [8]int
	rem, err := remaining(remBuf[:0], op, outer)
	if err != nil {
		return fmt.Errorf("dataflow %s, op %s: %w", d.name, op.Name, err)
	}
	leaf.Loops = leafLoops(leaf.Loops[:0], op, d.spec, rem, attentionLeafSpatial(op), budget, red)
	return nil
}

// fillUnfusedLV fills L×V's own subtree when it is outside the fusion
// (Uni-pipe, Chimera): the softmax output L then travels through DRAM. The
// subtree keeps the fused side's mid and stage loops over L×V's own dims,
// so both root children tile their shared dims identically; n is untiled
// outside.
func (d *fusedAttention) fillUnfusedLV(pp *attnPrep, top *core.Node, outer *outerProds, gran, stage *core.Node) error {
	lv := top
	if pp.cloud {
		lv = top.Children[0]
		top.Loops = appendOpLoops(top.Loops[:0], gran.Loops, pp.lvOp)
	}
	lv.Loops = appendOpLoops(lv.Loops[:0], stage.Loops, pp.lvOp)
	var lvOuter outerProds
	for _, dim := range pp.lvOp.Dims {
		if v := outer.of(dim.Name); v > 1 {
			lvOuter.mul(dim.Name, v)
		}
	}
	return d.fillLeaf(lv.Children[0], &lvOuter, 0, pp.lvRed)
}

// appendOpLoops appends the loops of src over dims op iterates to dst.
func appendOpLoops(dst, src []core.Loop, op *workload.Operator) []core.Loop {
	for _, l := range src {
		if op.HasDim(l.Dim) {
			dst = append(dst, l)
		}
	}
	return dst
}
