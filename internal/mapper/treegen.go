package mapper

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// Encoding is the Fig 7b representation of a point in the ordering/binding
// plane of the 3D design space: one column per operator with a fusion
// target, the memory level where the fusion stages data, and the inter-tile
// binding primitive.
type Encoding struct {
	// Target[i] is the index of the operator that operator i fuses into,
	// or -1 when operator i is mapped at the top level on its own.
	Target []int
	// Mem[i] is the memory level of the fusion (1..DRAM-1); ignored when
	// Target[i] < 0.
	Mem []int
	// Binding[i] is the inter-tile primitive binding operator i to its
	// fusion host's node.
	Binding []core.Binding
}

// Clone deep-copies the encoding.
func (e *Encoding) Clone() *Encoding {
	return &Encoding{
		Target:  append([]int(nil), e.Target...),
		Mem:     append([]int(nil), e.Mem...),
		Binding: append([]core.Binding(nil), e.Binding...),
	}
}

// String renders the encoding as a Fig 7b style table row.
func (e *Encoding) String() string {
	var b strings.Builder
	for i := range e.Target {
		if i > 0 {
			b.WriteString(" ")
		}
		if e.Target[i] < 0 {
			fmt.Fprintf(&b, "op%d:top", i)
		} else {
			fmt.Fprintf(&b, "op%d->op%d@L%d:%s", i, e.Target[i], e.Mem[i], e.Binding[i])
		}
	}
	return b.String()
}

// LayerwiseEncoding maps every operator at the top level (the no-fusion
// point of the ordering plane).
func LayerwiseEncoding(n int) *Encoding {
	e := &Encoding{Target: make([]int, n), Mem: make([]int, n), Binding: make([]core.Binding, n)}
	for i := range e.Target {
		e.Target[i] = -1
		e.Mem[i] = 1
	}
	return e
}

// Repair makes the encoding structurally valid in place: targets must point
// to later operators (keeping the schedule a forest in topological order)
// and fusion levels must fit inside the host's own chain.
func (e *Encoding) Repair(numLevels int) {
	n := len(e.Target)
	maxMem := numLevels - 2 // deepest on-chip level index
	if maxMem < 1 {
		maxMem = 1
	}
	for i := 0; i < n; i++ {
		if e.Target[i] >= 0 && (e.Target[i] <= i || e.Target[i] >= n) {
			e.Target[i] = -1
		}
		if e.Mem[i] < 1 {
			e.Mem[i] = 1
		}
		if e.Mem[i] > maxMem {
			e.Mem[i] = maxMem
		}
	}
	// Clamp fusion levels below the host's own span, walking hosts in
	// reverse topological order so chains settle in one pass. An op whose
	// host has no interior node left to fuse under reverts to top level.
	span := make([]int, n) // top level of each op's chain (0 = leaf only)
	for i := n - 1; i >= 0; i-- {
		if e.Target[i] < 0 {
			span[i] = maxMem
			continue
		}
		host := e.Target[i]
		if span[host] < 1 {
			e.Target[i] = -1
			span[i] = maxMem
			continue
		}
		if e.Mem[i] > span[host] {
			e.Mem[i] = span[host]
		}
		span[i] = e.Mem[i] - 1
	}
}

// GeneratedDataflow wraps an encoding as a dataflows.Dataflow so the MCTS
// tiling search applies unchanged: the tiling plane of the 3D space is the
// per-level, per-dimension factor table of Fig 7c. Construct it with
// NewGeneratedDataflow.
type GeneratedDataflow struct {
	Label string
	G     *workload.Graph
	Spec  *arch.Spec
	Enc   *Encoding
	// SpatialDim is split across cores at the root; SubDim across
	// sub-cores at each top chain's innermost node (Cloud).
	SpatialDim string
	SubDim     string
	// LeafSpatial picks leaf spatial dims per op.
	LeafSpatial func(op *workload.Operator) []string

	// plan is Build's factor-independent work, derived from the fields
	// above once; they must not change after construction.
	plan *buildPlan
}

// The attention leaves' spatial dims, shared by every wrapper; callers of
// LeafSpatial only read them.
var (
	attentionLVSpatial     = []string{"m", "n"}
	attentionVectorSpatial = []string{"l"}
	attentionMACSpatial    = []string{"m", "l"}
)

// NewGeneratedDataflow builds the wrapper with sensible spatial choices for
// the known workload families.
func NewGeneratedDataflow(label string, g *workload.Graph, spec *arch.Spec, enc *Encoding) *GeneratedDataflow {
	gd := &GeneratedDataflow{Label: label, G: g, Spec: spec, Enc: enc}
	if g.DimSize("h") > 0 && g.DimSize("m") > 0 { // attention
		gd.SpatialDim, gd.SubDim = "h", "m"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			switch {
			case op.Name == "LV":
				return attentionLVSpatial
			case op.Kind.Vector():
				return attentionVectorSpatial
			default:
				return attentionMACSpatial
			}
		}
	} else { // convolution chain (any channel-dim naming)
		gd.SpatialDim, gd.SubDim = "h", "w"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			var dims []string
			// Output channels: write dims other than the image plane.
			for _, ix := range op.Write.Index {
				for _, t := range ix.Terms {
					if t.Dim != "h" && t.Dim != "w" && !slices.Contains(dims, t.Dim) {
						dims = append(dims, t.Dim)
					}
				}
			}
			// Input channels: the largest reduction dim (filter taps are
			// tiny; the channel reduction dominates).
			best, bsz := "", 1
			for _, d := range op.Dims {
				if sz := op.DimSize(d.Name); op.IsReduction(d.Name) && sz > bsz {
					best, bsz = d.Name, sz
				}
			}
			if best != "" {
				dims = append(dims, best)
			}
			return dims
		}
	}
	gd.plan = gd.newPlan()
	return gd
}

func (d *GeneratedDataflow) Name() string           { return d.Label }
func (d *GeneratedDataflow) Graph() *workload.Graph { return d.G }

// StructureStable: the encoding fixes the tree shape (chains, attach
// points, bindings); the factor assignment fills loop extents only.
func (d *GeneratedDataflow) StructureStable() bool { return true }

// Factors implements Dataflow: one factor per on-chip level per dimension
// ("L<level>_<dim>"), plus the spatial splits. The keys are the plan's.
func (d *GeneratedDataflow) Factors() []dataflows.FactorSpec {
	p := d.plan
	maxMem, nd := d.Spec.NumLevels()-2, len(p.dims)
	fs := make([]dataflows.FactorSpec, 0, max(maxMem, 0)*nd+2)
	for l := maxMem; l >= 1; l-- {
		lv := strconv.Itoa(l)
		for g, dim := range p.dims {
			if dim.Size <= 1 {
				continue
			}
			fs = append(fs, dataflows.FactorSpec{
				Key:   p.keys[(l-1)*nd+g],
				Total: dim.Size,
				Doc:   "temporal tiles of " + dim.Name + " at level " + lv + " nodes",
			})
		}
	}
	if n := p.spatialSize; n > 1 {
		fs = append(fs, dataflows.FactorSpec{Key: "sp_c", Total: n, Doc: "spatial split across cores"})
	}
	if d.Spec.NumLevels() >= 4 {
		if n := p.subSize; n > 1 {
			fs = append(fs, dataflows.FactorSpec{Key: "sp_s", Total: n, Doc: "spatial split across sub-cores"})
		}
	}
	return fs
}

// DefaultFactors implements Dataflow: unit tiling everywhere except the
// spatial splits.
func (d *GeneratedDataflow) DefaultFactors() map[string]int {
	f := map[string]int{}
	if n := d.G.DimSize(d.SpatialDim); n > 1 {
		f["sp_c"] = dataflows.DivisorAtMost(n, d.Spec.Levels[d.Spec.DRAMLevel()].Fanout)
	}
	if d.Spec.NumLevels() >= 4 {
		if n := d.G.DimSize(d.SubDim); n > 1 {
			f["sp_s"] = dataflows.DivisorAtMost(n, d.Spec.Levels[2].Fanout)
		}
	}
	return f
}

// buildPlan is the factor-independent part of Build, computed once per
// encoding by NewGeneratedDataflow: the factor key table, the repaired
// encoding's tree skeleton (node names, levels, bindings, child order),
// the keys each interior node reads, and for each leaf the ancestor
// factors on its dims, its PE budget and its loop order. Build then only
// does the extent arithmetic and, for a feasible candidate, fills the
// tree's slabs.
type buildPlan struct {
	// dims are the graph's dimensions (Graph.AllDims) and keys the factor
	// keys on them: keys[(l-1)*len(dims)+g] is "L<l>_<dims[g].Name>" for
	// every on-chip level l. Factors lists them too.
	dims []workload.Dim
	keys []string
	// lenErr and err are structural failures: Build reports lenErr before
	// the spatial-split checks and err after them.
	lenErr, err error
	// spatialSize and subSize are the graph extents of SpatialDim and
	// SubDim, which sp_c and sp_s must divide.
	spatialSize, subSize int
	nodes                []planNode   // nodes[0] is the root
	children             []int        // child node indices, sliced by planNode
	used                 []int        // the keys some loop candidate reads, each once
	cands                []loopCand   // temporal loop candidates, sliced by planNode
	terms                []factorTerm // leaf path factors, sliced by planLeaf
	leaves               []planLeaf   // one per op, in op order
	subSplits            int          // nodes that carry the sub-core split
	// nslots sums the leaves' slot counts; maxSlots is the largest.
	nslots, maxSlots int
}

// planNode is one tree node. Interior nodes own cands[candLo:candHi];
// leaves (op != nil) take their loops from their planLeaf.
type planNode struct {
	name             string
	level            int
	binding          core.Binding
	op               *workload.Operator
	childLo, childHi int
	candLo, candHi   int
	// subSplit marks the innermost node of a top-level chain whose op
	// iterates SubDim: it carries the sub-core spatial split.
	subSplit bool
}

// loopCand is one "L<level>_<dim>" factor (keys[key]) that an interior
// node turns into a temporal loop when it divides the op's extent.
// Dimensions of extent one never loop and get no candidate.
type loopCand struct {
	dim       string
	size, key int
}

// planLeaf is one op's leaf.
type planLeaf struct {
	node int
	op   *workload.Operator
	// slot[k] numbers op.Dims[k] by name; path factors, remaining extents
	// and spatial splits are kept per slot, the leaf's slots at
	// [slotLo, slotLo+nslots) of Build's per-slot scratch.
	slot           []int
	nslots, slotLo int
	// terms are the ancestors' loops on the op's dims: temporal loop
	// candidates, and the sp_c/sp_s splits (see Build's ext).
	terms []factorTerm
	// spatial holds the first nspatial (at most two) of LeafSpatial's dims
	// as slots (-1: not an op dim).
	spatial  [2]int
	nspatial int
	// order lists op.Dims indices with reductions innermost.
	order  []int
	budget int // PE lanes available to a MAC leaf
}

type factorTerm struct{ cand, slot int }

// dimIndex returns the index of the dimension named name in dims, or -1.
func dimIndex(dims []workload.Dim, name string) int {
	for g := range dims {
		if dims[g].Name == name {
			return g
		}
	}
	return -1
}

// newPlan builds the factor key table, then assembles the tree skeleton
// from the encoding (repaired for the spec): each op's chain of interior
// nodes, fused chains attached to their hosts, top-level chains under the
// root, then one leaf under each chain.
func (d *GeneratedDataflow) newPlan() *buildPlan {
	g, spec := d.G, d.Spec
	maxMem := spec.NumLevels() - 2
	p := &buildPlan{dims: g.AllDims(), spatialSize: g.DimSize(d.SpatialDim), subSize: g.DimSize(d.SubDim)}
	nd := len(p.dims)
	p.keys = make([]string, 0, max(maxMem, 0)*nd)
	for l := 1; l <= maxMem; l++ {
		lv := strconv.Itoa(l)
		for _, dim := range p.dims {
			p.keys = append(p.keys, "L"+lv+"_"+dim.Name)
		}
	}
	enc := d.Enc.Clone()
	enc.Repair(spec.NumLevels())
	n := len(g.Ops)
	if n != len(enc.Target) {
		p.lenErr = fmt.Errorf("mapper: encoding for %d ops, graph has %d", len(enc.Target), n)
		return p
	}

	// Node layout: the root, then one block per op in reverse op order:
	// the op's chain from level tops[i] down to 1, then its leaf. Top-level
	// chains span the full on-chip hierarchy, fused chains the levels below
	// their fusion level. A host is a later op, so every parent precedes
	// its children, and a chain node's own child (the next node down, or
	// the leaf) is the node after it.
	maxNodes := 1 + n*(max(maxMem, 0)+1)
	ints := make([]int, 2*n+len(p.keys)+nd+3*maxNodes)
	tops, ints := ints[:n], ints[n:]
	base, ints := ints[:n], ints[n:]
	keyUsed, ints := ints[:len(p.keys)], ints[len(p.keys):]
	slotOfDim, ints := ints[:nd], ints[nd:]
	parent, ints := ints[:maxNodes], ints[maxNodes:]
	macs, pathTerms := ints[:maxNodes], ints[maxNodes:]
	nn, nc, ndims := 1, 0, 0
	for i := n - 1; i >= 0; i-- {
		tops[i] = maxMem
		if enc.Target[i] >= 0 {
			tops[i] = enc.Mem[i] - 1
		}
		base[i] = nn
		nn += max(tops[i], 0) + 1
		nc += max(tops[i], 0) * len(g.Ops[i].Dims)
		ndims += len(g.Ops[i].Dims)
	}
	at := func(i, l int) int {
		if l < 1 || l > tops[i] {
			return -1
		}
		return base[i] + tops[i] - l
	}
	leafOf := func(i int) int { return base[i] + max(tops[i], 0) }

	// Structural checks, in the order their errors are reported: every
	// fused chain needs a host node, every top-level chain an interior one.
	for i := n - 1; i >= 0; i-- {
		if enc.Target[i] >= 0 && at(enc.Target[i], enc.Mem[i]) < 0 {
			p.err = fmt.Errorf("mapper: op %d fused at level %d but host has no node there", i, enc.Mem[i])
			return p
		}
	}
	for i, op := range g.Ops {
		if enc.Target[i] < 0 && tops[i] < 1 {
			p.err = fmt.Errorf("mapper: op %s chain has no interior node", op.Name)
			return p
		}
	}

	// Nodes and child lists, in layout order. Every node but the root has
	// one parent, so the child lists fill nn-1 slots.
	p.nodes = make([]planNode, 0, nn)
	p.children = make([]int, 0, nn-1)
	p.cands = make([]loopCand, 0, nc)
	p.used = make([]int, 0, len(p.keys))
	parent[0] = -1
	attach := func(v, c int) {
		p.children = append(p.children, c)
		parent[c] = v
	}
	// The root holds the top-level chains in op order.
	for i := range g.Ops {
		if enc.Target[i] < 0 {
			attach(0, base[i])
		}
	}
	p.nodes = append(p.nodes, planNode{name: d.Label, level: spec.DRAMLevel(), childHi: len(p.children)})
	for i := n - 1; i >= 0; i-- {
		op := g.Ops[i]
		for l := tops[i]; l >= 1; l-- {
			v := len(p.nodes)
			pn := planNode{name: op.Name + "@L" + strconv.Itoa(l), level: l, candLo: len(p.cands), childLo: len(p.children)}
			for _, dim := range op.Dims {
				size := op.DimSize(dim.Name)
				if size <= 1 {
					continue
				}
				k := (l-1)*nd + dimIndex(p.dims, dim.Name)
				if keyUsed[k] == 0 {
					keyUsed[k] = 1
					p.used = append(p.used, k)
				}
				p.cands = append(p.cands, loopCand{dim: dim.Name, size: size, key: k})
			}
			pn.candHi = len(p.cands)
			// Chains fused at this node come first, in op order, and the
			// first non-Seq binding among them binds it; then the node's
			// own child, the next node down its chain or its leaf.
			for j := 0; j < i; j++ {
				if enc.Target[j] == i && enc.Mem[j] == l {
					attach(v, base[j])
					if pn.binding == core.Seq {
						pn.binding = enc.Binding[j]
					}
				}
			}
			attach(v, v+1)
			pn.childHi = len(p.children)
			// The sub-core spatial split goes on the innermost interior
			// node of top-level chains.
			if l == 1 && enc.Target[i] < 0 && op.HasDim(d.SubDim) {
				pn.subSplit = true
				p.subSplits++
			}
			p.nodes = append(p.nodes, pn)
		}
		p.nodes = append(p.nodes, planNode{name: op.Name, op: op})
	}
	// macs[v] counts the MAC leaves under v; pathTerms[v] bounds the path
	// factors of a leaf at v.
	for v := nn - 1; v > 0; v-- {
		if op := p.nodes[v].op; op != nil && !op.Kind.Vector() {
			macs[v]++
		}
		macs[parent[v]] += macs[v]
	}
	nt := 0
	for v := range p.nodes {
		pn := &p.nodes[v]
		pathTerms[v] = pn.candHi - pn.candLo + 2
		if v > 0 {
			pathTerms[v] += pathTerms[parent[v]]
		}
		if pn.op != nil {
			nt += pathTerms[v]
		}
	}

	// Build's ext holds the sp_c and sp_s extents after the candidates'.
	spCTerm, spSTerm := len(p.cands), len(p.cands)+1
	spatialDim, subDim := dimIndex(p.dims, d.SpatialDim), dimIndex(p.dims, d.SubDim)
	for gi := range slotOfDim {
		slotOfDim[gi] = -1
	}
	slotOf := func(gi int) int {
		if gi < 0 {
			return -1
		}
		return slotOfDim[gi]
	}
	p.leaves = make([]planLeaf, n)
	p.terms = make([]factorTerm, 0, nt)
	leafInts := make([]int, 2*ndims)
	for i, op := range g.Ops {
		pl := &p.leaves[i]
		*pl = planLeaf{node: leafOf(i), op: op, slotLo: p.nslots, budget: spec.MeshX * spec.MeshY}
		m := len(op.Dims)
		pl.slot, pl.order, leafInts = leafInts[:m:m], leafInts[m:2*m:2*m], leafInts[2*m:]
		for k, dim := range op.Dims {
			gi := dimIndex(p.dims, dim.Name)
			if slotOfDim[gi] < 0 {
				slotOfDim[gi] = pl.nslots
				pl.nslots++
			}
			pl.slot[k] = slotOfDim[gi]
		}
		lo := len(p.terms)
		for a := parent[pl.node]; a >= 0; a = parent[a] {
			pn := &p.nodes[a]
			for c := pn.candLo; c < pn.candHi; c++ {
				if s := slotOfDim[p.cands[c].key%nd]; s >= 0 {
					p.terms = append(p.terms, factorTerm{c, s})
				}
			}
			if s := slotOf(spatialDim); s >= 0 && a == 0 {
				p.terms = append(p.terms, factorTerm{spCTerm, s})
			}
			if s := slotOf(subDim); s >= 0 && pn.subSplit {
				p.terms = append(p.terms, factorTerm{spSTerm, s})
			}
		}
		pl.terms = p.terms[lo:len(p.terms):len(p.terms)]
		// MAC leaves running concurrently under a Para/Pipe ancestor
		// must share the PE array.
		if !op.Kind.Vector() {
			for a := parent[pl.node]; a >= 0; a = parent[a] {
				if pn := &p.nodes[a]; pn.binding.Spatial() && pn.childHi-pn.childLo > 1 {
					if macs[a] > 1 {
						pl.budget = max(1, pl.budget/macs[a])
					}
					break
				}
			}
		}
		for _, name := range d.LeafSpatial(op) {
			if pl.nspatial == len(pl.spatial) {
				break
			}
			pl.spatial[pl.nspatial] = slotOf(dimIndex(p.dims, name))
			pl.nspatial++
		}
		// A stable partition: non-reduction dims from the front, reductions
		// from the back, whose order is then restored.
		front, back := 0, m
		for k, dim := range op.Dims {
			if op.IsReduction(dim.Name) {
				back--
				pl.order[back] = k
			} else {
				pl.order[front] = k
				front++
			}
		}
		slices.Reverse(pl.order[back:])
		for gi := range slotOfDim {
			slotOfDim[gi] = -1
		}
		p.nslots += pl.nslots
		p.maxSlots = max(p.maxSlots, pl.nslots)
	}
	return p
}

// buildScratch is the length of Build's stack scratch; a plan whose
// extents need more ints allocates them.
const buildScratch = 256

// Build implements Dataflow: it converts the encoding into an analysis tree
// (Fig 7b) with the factor table as loops (Fig 7c), following the plan
// NewGeneratedDataflow computed. It computes every extent and checks every
// leaf before it allocates, so a rejected candidate costs only its error;
// a feasible one gets its node, child-pointer and loop slabs at their
// exact sizes.
func (d *GeneratedDataflow) Build(f map[string]int) (*core.Node, error) {
	p := d.plan
	if p.lenErr != nil {
		return nil, p.lenErr
	}
	spC, spS := 1, 1
	if v, ok := f["sp_c"]; ok && v > 1 {
		if p.spatialSize%v != 0 {
			return nil, fmt.Errorf("mapper: sp_c=%d does not divide %s", v, d.SpatialDim)
		}
		spC = v
	}
	if v, ok := f["sp_s"]; ok && v > 1 {
		if p.subSize%v != 0 {
			return nil, fmt.Errorf("mapper: sp_s=%d does not divide %s", v, d.SubDim)
		}
		spS = v
	}
	if p.err != nil {
		return nil, p.err
	}

	// Scratch: val[k] is the factor for key k; ext[c] the extent loop
	// candidate c got (1 when it was dropped), followed by the sp_c and
	// sp_s extents; covered is one leaf's path factors per slot; rem and
	// spat hold every leaf's remaining extents and spatial splits.
	nk, nc := len(p.keys), len(p.cands)
	var buf [buildScratch]int
	ints := buf[:]
	if need := nk + nc + 2 + p.maxSlots + 2*p.nslots; need > len(ints) {
		ints = make([]int, need)
	}
	val, ints := ints[:nk], ints[nk:]
	ext, ints := ints[:nc+2], ints[nc+2:]
	covered, ints := ints[:p.maxSlots], ints[p.maxSlots:]
	rem, spat := ints[:p.nslots], ints[p.nslots:2*p.nslots]
	for _, k := range p.used {
		val[k] = f[p.keys[k]]
	}
	nloops := 0
	ext[nc], ext[nc+1] = spC, spS
	if spC > 1 {
		nloops++
	}
	if spS > 1 {
		nloops += p.subSplits
	}
	for c := range p.cands {
		cand := &p.cands[c]
		ext[c] = 1
		if v := val[cand.key]; v > 1 && cand.size%v == 0 {
			ext[c] = v
			nloops++
		}
	}
	// Leaf extents: what the ancestors' loops leave of each dimension.
	for li := range p.leaves {
		pl := &p.leaves[li]
		cov := covered[:pl.nslots]
		for s := range cov {
			cov[s] = 1
		}
		for _, t := range pl.terms {
			cov[t.slot] *= ext[t.cand]
		}
		r := rem[pl.slotLo : pl.slotLo+pl.nslots]
		for k, dim := range pl.op.Dims {
			s := pl.slot[k]
			if dim.Size%cov[s] != 0 {
				return nil, fmt.Errorf("mapper: op %s dim %s: path factors %d do not divide %d",
					pl.op.Name, dim.Name, cov[s], dim.Size)
			}
			r[s] = dim.Size / cov[s]
		}
		nloops += pl.split(d.Spec, r, spat[pl.slotLo:pl.slotLo+pl.nslots])
	}

	nodes := make([]core.Node, len(p.nodes))
	kids := make([]*core.Node, len(p.children))
	for i, c := range p.children {
		kids[i] = &nodes[c]
	}
	loops := make([]core.Loop, 0, nloops)
	for i := range p.nodes {
		pn, n := &p.nodes[i], &nodes[i]
		n.Name, n.Level, n.Binding, n.Op = pn.name, pn.level, pn.binding, pn.op
		if pn.childHi > pn.childLo {
			n.Children = kids[pn.childLo:pn.childHi:pn.childHi]
		}
		if pn.op != nil {
			continue
		}
		start := len(loops)
		if i == 0 && spC > 1 {
			loops = append(loops, core.S(d.SpatialDim, spC))
		}
		if pn.subSplit && spS > 1 {
			loops = append(loops, core.S(d.SubDim, spS))
		}
		for c := pn.candLo; c < pn.candHi; c++ {
			if e := ext[c]; e > 1 {
				loops = append(loops, core.T(p.cands[c].dim, e))
			}
		}
		n.Loops = ownLoops(loops, start)
	}
	for li := range p.leaves {
		pl := &p.leaves[li]
		start := len(loops)
		loops = pl.appendLoops(loops, rem[pl.slotLo:pl.slotLo+pl.nslots], spat[pl.slotLo:pl.slotLo+pl.nslots])
		nodes[pl.node].Loops = ownLoops(loops, start)
	}
	return &nodes[0], nil
}

// ownLoops returns loops[start:] as one node's loop nest: nil when empty,
// and capacity-capped so appending to it cannot overwrite another node's.
func ownLoops(loops []core.Loop, start int) []core.Loop {
	if len(loops) == start {
		return nil
	}
	return loops[start:len(loops):len(loops)]
}

// split mirrors the dataflows package's leaf spatial mapping: it sizes the
// leaf's spatial splits to the available lanes, writing them per slot into
// spat (zeroed), and returns how many loops appendLoops will emit. rem
// holds the remaining extent per slot.
func (pl *planLeaf) split(spec *arch.Spec, rem, spat []int) int {
	if pl.op.Kind.Vector() {
		if pl.nspatial > 0 {
			splitSlot(rem, spat, pl.spatial[0], spec.VectorLanesPerSubcore)
		}
	} else {
		used := 1
		if pl.nspatial > 0 {
			used = splitSlot(rem, spat, pl.spatial[0], min(spec.MeshX, pl.budget))
		}
		if pl.nspatial > 1 {
			splitSlot(rem, spat, pl.spatial[1], min(spec.MeshY, max(1, pl.budget/used)))
		}
	}
	n := 0
	for _, s := range pl.slot {
		if leafTile(rem, spat, s) > 1 {
			n++
		}
		if spat[s] > 1 {
			n++
		}
	}
	return n
}

// splitSlot splits slot s across the largest divisor of its remaining
// extent that fits in lanes, and returns the split (1 when s < 0: the op
// lacks the dimension).
func splitSlot(rem, spat []int, s, lanes int) int {
	if s < 0 {
		return 1
	}
	spat[s] = dataflows.DivisorAtMost(rem[s], lanes)
	return spat[s]
}

// leafTile is a leaf's temporal extent on slot s: what its spatial split
// leaves of the remaining extent.
func leafTile(rem, spat []int, s int) int { return max(rem[s], 1) / max(spat[s], 1) }

// appendLoops emits a leaf's loops: temporal loops (reductions innermost)
// then spatial loops, from the extents and splits split computed.
func (pl *planLeaf) appendLoops(loops []core.Loop, rem, spat []int) []core.Loop {
	for _, k := range pl.order {
		if t := leafTile(rem, spat, pl.slot[k]); t > 1 {
			loops = append(loops, core.T(pl.op.Dims[k].Name, t))
		}
	}
	for _, k := range pl.order {
		if sp := spat[pl.slot[k]]; sp > 1 {
			loops = append(loops, core.S(pl.op.Dims[k].Name, sp))
		}
	}
	return loops
}
