package mapper

import (
	"fmt"
	"sort"
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

// NewGeneratedDataflow builds the wrapper with sensible spatial choices for
// the known workload families.
func NewGeneratedDataflow(label string, g *workload.Graph, spec *arch.Spec, enc *Encoding) *GeneratedDataflow {
	gd := &GeneratedDataflow{Label: label, G: g, Spec: spec, Enc: enc}
	if g.DimSize("h") > 0 && g.DimSize("m") > 0 { // attention
		gd.SpatialDim, gd.SubDim = "h", "m"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			switch {
			case op.Name == "LV":
				return []string{"m", "n"}
			case op.Kind.Vector():
				return []string{"l"}
			default:
				return []string{"m", "l"}
			}
		}
	} else { // convolution chain (any channel-dim naming)
		gd.SpatialDim, gd.SubDim = "h", "w"
		gd.LeafSpatial = func(op *workload.Operator) []string {
			var dims []string
			// Output channels: write dims other than the image plane.
			for _, d := range op.Write.Dims() {
				if d != "h" && d != "w" {
					dims = append(dims, d)
				}
			}
			// Input channels: the largest reduction dim (filter taps are
			// tiny; the channel reduction dominates).
			best, bsz := "", 1
			for _, rd := range op.ReductionDims() {
				if sz := op.DimSize(rd); sz > bsz {
					best, bsz = rd, sz
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
// ("L<level>_<dim>"), plus the spatial splits.
func (d *GeneratedDataflow) Factors() []dataflows.FactorSpec {
	var fs []dataflows.FactorSpec
	maxMem := d.Spec.NumLevels() - 2
	dims := d.G.AllDims()
	for l := maxMem; l >= 1; l-- {
		for _, dim := range dims {
			if dim.Size <= 1 {
				continue
			}
			fs = append(fs, dataflows.FactorSpec{
				Key:   fmt.Sprintf("L%d_%s", l, dim.Name),
				Total: dim.Size,
				Doc:   fmt.Sprintf("temporal tiles of %s at level %d nodes", dim.Name, l),
			})
		}
	}
	if n := d.G.DimSize(d.SpatialDim); n > 1 {
		fs = append(fs, dataflows.FactorSpec{Key: "sp_c", Total: n, Doc: "spatial split across cores"})
	}
	if d.Spec.NumLevels() >= 4 {
		if n := d.G.DimSize(d.SubDim); n > 1 {
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
// encoding by NewGeneratedDataflow: the repaired encoding's tree skeleton
// (node names, levels, bindings, child order), the factor keys each
// interior node reads, and for each leaf the ancestor factors on its dims,
// its PE budget and its loop order. Build then only allocates the nodes and
// loops and does the extent arithmetic.
type buildPlan struct {
	// lenErr and err are structural failures: Build reports lenErr before
	// the spatial-split checks and err after them.
	lenErr, err error
	// spatialSize and subSize are the graph extents of SpatialDim and
	// SubDim, which sp_c and sp_s must divide.
	spatialSize, subSize int
	nodes                []planNode // nodes[0] is the root
	children             []int      // child node indices, sliced by planNode
	cands                []loopCand // temporal loop candidates, sliced by planNode
	leaves               []planLeaf // one per op, in op order
	maxLoops             int        // upper bound on the loops of one tree
	maxSlots             int        // most distinct dims of any op
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

// loopCand is one "L<level>_<dim>" factor that an interior node turns into
// a temporal loop when it divides the op's extent.
type loopCand struct {
	key, dim string
	size     int
}

// planLeaf is one op's leaf.
type planLeaf struct {
	node int
	op   *workload.Operator
	// slot[k] numbers op.Dims[k] by name; path factors, remaining extents
	// and spatial splits are kept per slot.
	slot   []int
	nslots int
	// terms are the ancestors' loops on the op's dims: temporal loop
	// candidates, and the sp_c/sp_s splits (see Build's ext).
	terms []factorTerm
	// spatial holds LeafSpatial's dims as slots (-1: not an op dim).
	spatial []int
	// order lists op.Dims indices with reductions innermost.
	order  []int
	budget int // PE lanes available to a MAC leaf
}

type factorTerm struct{ cand, slot int }

// newPlan assembles the tree skeleton from the encoding (repaired for the
// spec): each op's chain of interior nodes, fused chains attached to their
// hosts, top-level chains under the root, then one leaf under each chain.
func (d *GeneratedDataflow) newPlan() *buildPlan {
	p := &buildPlan{spatialSize: d.G.DimSize(d.SpatialDim), subSize: d.G.DimSize(d.SubDim)}
	enc := d.Enc.Clone()
	enc.Repair(d.Spec.NumLevels())
	n := len(d.G.Ops)
	if n != len(enc.Target) {
		p.lenErr = fmt.Errorf("mapper: encoding for %d ops, graph has %d", len(enc.Target), n)
		return p
	}
	maxMem := d.Spec.NumLevels() - 2

	kids := [][]int{nil}
	p.nodes = []planNode{{name: d.Label, level: d.Spec.DRAMLevel()}}
	newNode := func(pn planNode) int {
		p.nodes = append(p.nodes, pn)
		kids = append(kids, nil)
		return len(p.nodes) - 1
	}

	// Each op's chain spans levels [1, top] plus its leaf. Top-level ops
	// span the full on-chip hierarchy; fused ops span below their fusion
	// level.
	tops := make([]int, n)
	chainNodes := make([][]int, n) // chainNodes[i][l-1]: op i's level-l node
	leafOf := make([]int, n)
	at := func(i, l int) int {
		if l < 1 || l > tops[i] {
			return -1
		}
		return chainNodes[i][l-1]
	}
	newLeaf := func(i int) int {
		leafOf[i] = newNode(planNode{name: d.G.Ops[i].Name, op: d.G.Ops[i]})
		return leafOf[i]
	}
	for i := n - 1; i >= 0; i-- {
		op := d.G.Ops[i]
		tops[i] = maxMem
		if enc.Target[i] >= 0 {
			tops[i] = enc.Mem[i] - 1
		}
		leafOf[i] = -1
		chainNodes[i] = make([]int, max(tops[i], 0))
		for l := tops[i]; l >= 1; l-- {
			lo := len(p.cands)
			for _, dim := range op.DimNames() {
				p.cands = append(p.cands, loopCand{key: fmt.Sprintf("L%d_%s", l, dim), dim: dim, size: op.DimSize(dim)})
			}
			chainNodes[i][l-1] = newNode(planNode{
				name: fmt.Sprintf("%s@L%d", op.Name, l), level: l, candLo: lo, candHi: len(p.cands),
			})
		}
	}
	for i, op := range d.G.Ops {
		// The sub-core spatial split goes on the innermost interior node
		// of top-level chains.
		if b := at(i, 1); enc.Target[i] < 0 && b >= 0 && op.HasDim(d.SubDim) {
			p.nodes[b].subSplit = true
		}
		for l := tops[i]; l > 1; l-- {
			kids[at(i, l)] = []int{at(i, l-1)}
		}
	}
	// Attach fused chains to their hosts (reverse order keeps producer
	// tiles before their consumers under the same host node).
	for i := n - 1; i >= 0; i-- {
		if enc.Target[i] < 0 {
			continue
		}
		host := at(enc.Target[i], enc.Mem[i])
		if host < 0 {
			p.err = fmt.Errorf("mapper: op %d fused at level %d but host has no node there", i, enc.Mem[i])
			return p
		}
		sub := at(i, tops[i])
		if sub < 0 {
			sub = newLeaf(i)
		}
		kids[host] = append([]int{sub}, kids[host]...)
		if enc.Binding[i] != core.Seq {
			p.nodes[host].binding = enc.Binding[i]
		}
	}
	// Attach top-level chains under the root in topological order.
	for i := 0; i < n; i++ {
		if top := at(i, tops[i]); enc.Target[i] < 0 && top >= 0 {
			kids[0] = append(kids[0], top)
		}
	}
	// Every chain interior ends in a leaf.
	for i, op := range d.G.Ops {
		if leafOf[i] >= 0 {
			continue
		}
		bottom := at(i, 1)
		if bottom < 0 {
			p.err = fmt.Errorf("mapper: op %s chain has no interior node", op.Name)
			return p
		}
		kids[bottom] = append(kids[bottom], newLeaf(i))
	}

	parent := make([]int, len(p.nodes))
	parent[0] = -1
	for v, ks := range kids {
		p.nodes[v].childLo = len(p.children)
		p.children = append(p.children, ks...)
		p.nodes[v].childHi = len(p.children)
		for _, c := range ks {
			parent[c] = v
		}
	}
	var macLeaves func(v int) int
	macLeaves = func(v int) int {
		if op := p.nodes[v].op; op != nil {
			if op.Kind.Vector() {
				return 0
			}
			return 1
		}
		m := 0
		for _, c := range kids[v] {
			m += macLeaves(c)
		}
		return m
	}

	// Build's ext holds the sp_c and sp_s extents after the candidates'.
	spCTerm, spSTerm := len(p.cands), len(p.cands)+1
	p.maxLoops = 1 + len(p.cands)
	for _, pn := range p.nodes {
		if pn.subSplit {
			p.maxLoops++
		}
	}
	for i, op := range d.G.Ops {
		pl := planLeaf{node: leafOf[i], op: op, budget: d.Spec.MeshX * d.Spec.MeshY}
		slots := map[string]int{}
		for _, dim := range op.Dims {
			s, ok := slots[dim.Name]
			if !ok {
				s = len(slots)
				slots[dim.Name] = s
			}
			pl.slot = append(pl.slot, s)
		}
		pl.nslots = len(slots)
		for a := parent[pl.node]; a >= 0; a = parent[a] {
			pn := &p.nodes[a]
			for c := pn.candLo; c < pn.candHi; c++ {
				if s, ok := slots[p.cands[c].dim]; ok {
					pl.terms = append(pl.terms, factorTerm{c, s})
				}
			}
			if s, ok := slots[d.SpatialDim]; ok && a == 0 {
				pl.terms = append(pl.terms, factorTerm{spCTerm, s})
			}
			if s, ok := slots[d.SubDim]; ok && pn.subSplit {
				pl.terms = append(pl.terms, factorTerm{spSTerm, s})
			}
		}
		// MAC leaves running concurrently under a Para/Pipe ancestor
		// must share the PE array.
		if !op.Kind.Vector() {
			for a := parent[pl.node]; a >= 0; a = parent[a] {
				if pn := p.nodes[a]; pn.binding.Spatial() && pn.childHi-pn.childLo > 1 {
					if macs := macLeaves(a); macs > 1 {
						pl.budget = max(1, pl.budget/macs)
					}
					break
				}
			}
		}
		for _, dim := range d.LeafSpatial(op) {
			s, ok := slots[dim]
			if !ok {
				s = -1
			}
			pl.spatial = append(pl.spatial, s)
		}
		pl.order = make([]int, len(op.Dims))
		for k := range pl.order {
			pl.order[k] = k
		}
		sort.SliceStable(pl.order, func(a, b int) bool {
			ra, rb := op.IsReduction(op.Dims[pl.order[a]].Name), op.IsReduction(op.Dims[pl.order[b]].Name)
			return !ra && rb
		})
		p.maxSlots = max(p.maxSlots, pl.nslots)
		p.maxLoops += 2 * len(op.Dims)
		p.leaves = append(p.leaves, pl)
	}
	return p
}

// Build implements Dataflow: it converts the encoding into an analysis tree
// (Fig 7b) with the factor table as loops (Fig 7c), following the plan
// NewGeneratedDataflow computed.
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

	nodes := make([]core.Node, len(p.nodes))
	kids := make([]*core.Node, len(p.children))
	for i, c := range p.children {
		kids[i] = &nodes[c]
	}
	loops := make([]core.Loop, 0, p.maxLoops)
	// ext[c] is the extent loop candidate c got (1 when it was dropped),
	// followed by the sp_c and sp_s extents; covered, rem and spat are
	// per-slot scratch for one leaf at a time.
	nc := len(p.cands)
	ints := make([]int, nc+2+3*p.maxSlots)
	ext, ints := ints[:nc+2], ints[nc+2:]
	ext[nc], ext[nc+1] = spC, spS
	covered, rem, spat := ints[:p.maxSlots], ints[p.maxSlots:2*p.maxSlots], ints[2*p.maxSlots:]
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
			cand := &p.cands[c]
			ext[c] = 1
			if v := f[cand.key]; v > 1 && cand.size%v == 0 {
				ext[c] = v
				loops = append(loops, core.T(cand.dim, v))
			}
		}
		n.Loops = ownLoops(loops, start)
	}

	// Leaf extents: what the ancestors' loops leave of each dimension.
	for li := range p.leaves {
		pl := &p.leaves[li]
		for s := 0; s < pl.nslots; s++ {
			covered[s], spat[s] = 1, 0
		}
		for _, t := range pl.terms {
			covered[t.slot] *= ext[t.cand]
		}
		for k, dim := range pl.op.Dims {
			s := pl.slot[k]
			if dim.Size%covered[s] != 0 {
				return nil, fmt.Errorf("mapper: op %s dim %s: path factors %d do not divide %d",
					pl.op.Name, dim.Name, covered[s], dim.Size)
			}
			rem[s] = dim.Size / covered[s]
		}
		start := len(loops)
		loops = pl.appendLoops(loops, d.Spec, rem, spat)
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

// appendLoops mirrors the dataflows package's leaf construction: temporal
// loops (reductions innermost) then spatial loops sized to the available
// lanes. rem holds the remaining extent per slot; spat (zeroed) receives
// the spatial split per slot.
func (pl *planLeaf) appendLoops(loops []core.Loop, spec *arch.Spec, rem, spat []int) []core.Loop {
	remOf := func(s int) int {
		if s < 0 {
			return 0
		}
		return rem[s]
	}
	split := func(s, v int) int {
		if s >= 0 {
			spat[s] = v
		}
		return v
	}
	if pl.op.Kind.Vector() {
		if len(pl.spatial) > 0 {
			s := pl.spatial[0]
			split(s, dataflows.DivisorAtMost(remOf(s), spec.VectorLanesPerSubcore))
		}
	} else {
		used := 1
		if len(pl.spatial) > 0 {
			s := pl.spatial[0]
			used = split(s, dataflows.DivisorAtMost(remOf(s), min(spec.MeshX, pl.budget)))
		}
		if len(pl.spatial) > 1 {
			s := pl.spatial[1]
			split(s, dataflows.DivisorAtMost(remOf(s), min(spec.MeshY, max(1, pl.budget/used))))
		}
	}
	for _, k := range pl.order {
		s := pl.slot[k]
		if t := max(rem[s], 1) / max(spat[s], 1); t > 1 {
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
