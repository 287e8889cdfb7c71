// Package core implements TileFlow's primary contribution: the analysis tree
// built from the tile-centric notation (Sec 4) and the tree-based analysis
// of data movement volume, resource usage, latency and energy (Sec 5).
//
// A fusion dataflow is a tree of tile nodes. Each node is a perfect loop
// nest (a polyhedron of iterations) over its children; leaves carry a single
// operator. Loops are bound spatially (Sp) or temporally (Tp); sibling tiles
// are bound by one of the four inter-tile primitives of Table 1: Seq, Shar,
// Para, Pipe. A node's Level names the memory level (index into
// arch.Spec.Levels) whose buffer stages the node's data slices.
package core

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Binding is an inter-tile resource binding primitive (Table 1).
type Binding int

// The four inter-tile primitives. Seq gives each tile all resources in
// turns and evicts slices between tiles; Shar shares the memory across
// tiles executing in turns; Para and Pipe split compute and memory
// spatially, Pipe additionally pipelining dependent tiles.
const (
	Seq Binding = iota
	Shar
	Para
	Pipe
)

// String implements fmt.Stringer.
func (b Binding) String() string {
	switch b {
	case Seq:
		return "Seq"
	case Shar:
		return "Shar"
	case Para:
		return "Para"
	case Pipe:
		return "Pipe"
	}
	return fmt.Sprintf("Binding(%d)", int(b))
}

// Spatial reports whether the binding runs sibling tiles concurrently on
// disjoint hardware (Para, Pipe) rather than time-multiplexed (Seq, Shar).
func (b Binding) Spatial() bool { return b == Para || b == Pipe }

// LoopKind distinguishes the intra-tile primitives Sp and Tp of Table 1.
type LoopKind int

// Loop kinds: temporal loops advance over time steps, spatial loops map to
// parallel hardware units.
const (
	Temporal LoopKind = iota
	Spatial
)

// String implements fmt.Stringer.
func (k LoopKind) String() string {
	if k == Spatial {
		return "Sp"
	}
	return "Tp"
}

// Loop is one tiling loop of a tile node: a dimension name, the trip count
// at this node, and a spatial/temporal binding. Within a node, loops are
// ordered outermost first; spatial loops are treated as subdividing the
// chunk of the innermost temporal position.
type Loop struct {
	Dim    string
	Extent int
	Kind   LoopKind
}

// T builds a temporal loop.
func T(dim string, extent int) Loop { return Loop{Dim: dim, Extent: extent, Kind: Temporal} }

// S builds a spatial loop.
func S(dim string, extent int) Loop { return Loop{Dim: dim, Extent: extent, Kind: Spatial} }

// String renders the loop like "i1:4" or "Sp(i1:4)".
func (l Loop) String() string {
	if l.Kind == Spatial {
		return fmt.Sprintf("Sp(%s:%d)", l.Dim, l.Extent)
	}
	return fmt.Sprintf("%s:%d", l.Dim, l.Extent)
}

// Node is one tile of an analysis tree: the recursive tile definition
// T_n = {loops}(T¹_{n−1}, …) of Sec 4.2. A leaf node carries the operator it
// computes; interior nodes carry the inter-tile binding of their children.
type Node struct {
	// Name labels the tile for diagnostics and notation round-trips
	// (e.g. "T0_1").
	Name string

	// Level indexes arch.Spec.Levels; the node's slices are staged in
	// that level's buffer. Leaves sit at level 0 (registers); the root
	// usually sits at the DRAM level.
	Level int

	// Loops is the node's loop nest, outermost first.
	Loops []Loop

	// Binding combines the children (ignored for leaves). The paper's
	// default when unspecified is Seq.
	Binding Binding

	// Children are the sub-tiles, in execution order for Seq/Shar.
	Children []*Node

	// Op is non-nil exactly for leaves.
	Op *workload.Operator
}

// Leaf builds a leaf tile computing op with the given loops.
func Leaf(name string, op *workload.Operator, loops ...Loop) *Node {
	return &Node{Name: name, Level: 0, Op: op, Loops: loops}
}

// Tile builds an interior tile node.
func Tile(name string, level int, binding Binding, loops []Loop, children ...*Node) *Node {
	return &Node{Name: name, Level: level, Binding: binding, Loops: loops, Children: children}
}

// IsLeaf reports whether the node is a leaf tile.
func (n *Node) IsLeaf() bool { return n.Op != nil }

// TemporalTrips is the product of the node's temporal loop extents: the
// number of time steps one execution of this tile takes at its own level.
func (n *Node) TemporalTrips() int64 {
	t := int64(1)
	for _, l := range n.Loops {
		if l.Kind == Temporal {
			t *= int64(l.Extent)
		}
	}
	return t
}

// SpatialProduct is the product of the node's spatial loop extents: the
// number of parallel hardware partitions the node spreads across.
func (n *Node) SpatialProduct() int {
	s := 1
	for _, l := range n.Loops {
		if l.Kind == Spatial {
			s *= l.Extent
		}
	}
	return s
}

// SpatialExtent is the product of spatial extents over the named dimension
// at this node.
func (n *Node) SpatialExtent(dim string) int {
	s := 1
	for _, l := range n.Loops {
		if l.Kind == Spatial && l.Dim == dim {
			s *= l.Extent
		}
	}
	return s
}

// DimExtent is the product of all loop extents (spatial and temporal) over
// the named dimension at this node.
func (n *Node) DimExtent(dim string) int {
	s := 1
	for _, l := range n.Loops {
		if l.Dim == dim {
			s *= l.Extent
		}
	}
	return s
}

// Walk visits the subtree in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Leaves collects the leaf tiles of the subtree in execution order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// Ops collects the distinct operators computed in the subtree, in execution
// order.
func (n *Node) Ops() []*workload.Operator {
	var out []*workload.Operator
	seen := map[*workload.Operator]bool{}
	for _, leaf := range n.Leaves() {
		if !seen[leaf.Op] {
			seen[leaf.Op] = true
			out = append(out, leaf.Op)
		}
	}
	return out
}

// Clone deep-copies the subtree. Operators are shared, not copied.
func (n *Node) Clone() *Node {
	c := *n
	c.Loops = append([]Loop(nil), n.Loops...)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return &c
}

// String renders the subtree as an indented outline.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	loops := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		loops[i] = l.String()
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s%s@L%d {%s} op=%s\n", indent, n.Name, n.Level, strings.Join(loops, ", "), n.Op.Name)
		return
	}
	fmt.Fprintf(b, "%s%s@L%d {%s} %s\n", indent, n.Name, n.Level, strings.Join(loops, ", "), n.Binding)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// tree is the evaluation-time view of an analysis tree. Nodes are numbered
// in pre-order; every topological relation — parent links, children lists,
// subtree intervals, leaf indices — lives in the shared structure tables
// indexed by that numbering, so a tiling re-bind only has to produce a new
// nodeSet slice. The structure is shared between a compiled template tree
// and its rebind views and must never be mutated after buildTree returns.
type tree struct {
	root    *Node
	nodeSet []*Node // pre-order; nodeSet[i] is the node with id i
	st      *structure
	// ldim[i][k] is the interned dim id of nodeSet[i].Loops[k] (-1 when
	// the dim is outside the structure's dim universe). It is the one
	// tiling-dependent table the tree carries: the hot analysis loops
	// compare these int32s instead of hashing dim strings. Recomputed by
	// every rebind; rows share the ldimBuf backing so a steady-state
	// re-bind allocates nothing.
	ldim    [][]int32
	ldimBuf []int32
	// ext[i*numDims+d]/sext[i*numDims+d] are the products of node i's loop
	// extents over interned dim d — all loops and spatial loops
	// respectively — the constant-time form of DimExtent/SpatialExtent the
	// coverage walks read. Recomputed by setLdim on every rebind; both
	// halves share extBuf.
	ext, sext []int64
	extBuf    []int64
}

// structure holds every analysis table that depends only on the tree's
// shape, levels, bindings and operators — never on loop extents — indexed
// by pre-order node id. One structure is computed per Compile and shared,
// read-only, by every tiling re-bind of the same shape.
type structure struct {
	// parent is the pre-order id of each node's parent; -1 for the root.
	parent []int
	// children lists each node's child ids in execution order.
	children [][]int
	// size is the subtree node count, making subtree membership an
	// O(1) pre-order interval test.
	size []int
	// leafOps[k] is a template operator and leafIDs[k] its leaf's
	// pre-order id, in first-occurrence order; leafOf searches them.
	leafOps []*workload.Operator
	leafIDs []int
	// dimNames[id] is the dimension name interned to id. Every name any
	// operator declares gets a dense id in [0, numDims), in
	// first-leaf-declaration (pre-order) order, so the assignment is
	// deterministic. The hot analysis loops run on these ids (loop
	// compares, mask tests) instead of string hashing.
	dimNames []string
	numDims  int
	// dimStart[b] is 1 + the lowest id whose name starts with byte b, or
	// 0 when none does (ids from 255 on are not recorded): where dimOf's
	// scan starts.
	dimStart [256]uint8
	// dimMask holds, per node, the set of iteration dims of all operators
	// in the subtree as a bitset over dim ids: row id is subtreeDims(id).
	dimMask []bool
	// leafDims[i] is the interned id of each of leaf i's operator dims, in
	// declaration order; nil for interior nodes.
	leafDims [][]int32
	// tensors[x] is the tensor name interned to the per-Compile tensor
	// index x, in first-access (pre-order leaf, reads then write) order.
	tensors []string
	// groups lists, per node, the tensors its subtree accesses with all
	// per-tensor access closures precomputed, in first-use order.
	groups [][]tensorGroup
}

// leafOf returns the pre-order id of op's leaf: the first childless leaf
// computing op, or -1 when op occurs only on or under a leaf with
// children. ok is false when no leaf computes op.
func (st *structure) leafOf(op *workload.Operator) (id int, ok bool) {
	if k := st.leafSlot(op); k >= 0 {
		return st.leafIDs[k], true
	}
	return 0, false
}

// leafSlot returns op's index into leafOps, or -1.
func (st *structure) leafSlot(op *workload.Operator) int {
	for k, o := range st.leafOps {
		if o == op {
			return k
		}
	}
	return -1
}

// subtreeDims returns node id's row of dimMask.
func (st *structure) subtreeDims(id int) []bool {
	return st.dimMask[id*st.numDims : (id+1)*st.numDims : (id+1)*st.numDims]
}

// dimOf returns the interned id of a dimension name, or -1 when no
// operator of the tree declares it. Universes are a handful of short names
// that mostly differ in their first byte, so the scan starts at the first
// name sharing it: usually a single compare, and cheaper than hashing.
func (st *structure) dimOf(name string) int32 {
	from := 0
	if name != "" {
		switch k := st.dimStart[name[0]]; {
		case k > 0:
			from = int(k - 1)
		case len(st.dimNames) < 255:
			return -1
		default:
			from = 255
		}
	}
	for id := from; id < len(st.dimNames); id++ {
		if st.dimNames[id] == name {
			return int32(id)
		}
	}
	return -1
}

// addDim interns a new dimension name and returns its id.
func (st *structure) addDim(name string) int32 {
	id := len(st.dimNames)
	st.dimNames = append(st.dimNames, name)
	if name != "" && st.dimStart[name[0]] == 0 && id < 255 {
		st.dimStart[name[0]] = uint8(id + 1)
	}
	return int32(id)
}

// tensorOf returns the per-Compile index of a tensor name, or -1 when no
// leaf of the tree accesses it.
func (st *structure) tensorOf(name string) int {
	for x, tn := range st.tensors {
		if tn == name {
			return x
		}
	}
	return -1
}

// buildTree indexes root, rejects it with the first structure-phase
// violation of the legality rules, and builds every structure table.
func buildTree(root *Node) (*tree, error) {
	t := indexTree(root)
	if err := (&ruleInput{t: t}).check(phaseStructure, nil); err != nil {
		return nil, err
	}
	t.indexDims(true)
	buildStructure(t)
	return t, nil
}

// indexTree numbers root's tiles in pre-order into a fresh tree, its
// structure allocated alongside, and fills the parent, children,
// subtree-size and operator-leaf tables. It accepts malformed trees, which
// the structure rules then report: a leaf's children are not tiles and are
// not indexed, and leafOf keeps the first childless leaf of each operator
// (-1 when the operator occurs only on or under a leaf with children).
// Slices are sized by a counting pass and the integer tables share one
// slab, so indexing costs a few allocations whatever the tree size. The dim
// tables are left for indexDims.
func indexTree(root *Node) *tree {
	ts := &struct {
		tree
		st structure
	}{}
	t, st := &ts.tree, &ts.st
	t.st = st
	nn, nl := countTiles(root)
	t.root = root
	t.nodeSet = make([]*Node, 0, nn)
	ints := make([]int, 3*nn+nl)
	st.parent, st.size = ints[0:0:nn], ints[nn:nn:2*nn]
	st.leafIDs = ints[3*nn : 3*nn : 3*nn+nl]
	st.children = make([][]int, 0, nn)
	st.leafOps = make([]*workload.Operator, 0, nl)
	kids := ints[2*nn : 2*nn : 3*nn]
	t.index(root, -1, &kids)
	return t
}

// countTiles counts the tiles index will number and, of them, the leaves.
func countTiles(n *Node) (tiles, leaves int) {
	if n.IsLeaf() {
		return 1, 1
	}
	tiles = 1
	for _, ch := range n.Children {
		c, l := countTiles(ch)
		tiles += c
		leaves += l
	}
	return tiles, leaves
}

// index appends n's subtree to the index. A node's child ids occupy one
// reserved run of kids, which never outgrows its counted capacity, so the
// children rows can alias it.
func (t *tree) index(n *Node, parent int, kids *[]int) {
	st := t.st
	id := len(t.nodeSet)
	t.nodeSet = append(t.nodeSet, n)
	st.parent = append(st.parent, parent)
	st.size = append(st.size, 1)
	if n.IsLeaf() {
		st.children = append(st.children, nil)
		if len(n.Children) > 0 {
			n.Walk(func(m *Node) {
				if m.IsLeaf() && st.leafSlot(m.Op) < 0 {
					st.leafOps = append(st.leafOps, m.Op)
					st.leafIDs = append(st.leafIDs, -1)
				}
			})
		} else if k := st.leafSlot(n.Op); k < 0 {
			st.leafOps = append(st.leafOps, n.Op)
			st.leafIDs = append(st.leafIDs, id)
		} else if st.leafIDs[k] < 0 {
			st.leafIDs[k] = id
		}
		return
	}
	lo := len(*kids)
	*kids = (*kids)[:lo+len(n.Children)]
	row := (*kids)[lo:len(*kids):len(*kids)]
	st.children = append(st.children, row)
	for i, c := range n.Children {
		row[i] = len(t.nodeSet)
		t.index(c, id, kids)
	}
	st.size[id] = len(t.nodeSet) - id
}

// indexDims interns the operators' dimension names, computes each node's
// subtree dim mask and fills the per-loop dim tables: everything the tiling
// rules read. spatial asks for the spatial extent table too, which only
// the evaluator reads.
func (t *tree) indexDims(spatial bool) {
	st := t.st
	nn, total, loops := len(t.nodeSet), 0, 0
	for _, n := range t.nodeSet {
		if n.IsLeaf() {
			total += len(n.Op.Dims)
		}
		loops += len(n.Loops)
	}
	// One slab holds the leaf dim ids and the per-loop ids setLdim fills;
	// another the rows of both tables.
	ids := make([]int32, total+loops)
	t.ldimBuf = ids[total:]
	ids = ids[:0:total]
	rows := make([][]int32, 2*nn)
	st.leafDims, t.ldim = rows[:nn:nn], rows[nn:nn]
	st.dimNames = make([]string, 0, min(total, 16))
	for i, n := range t.nodeSet {
		if !n.IsLeaf() {
			continue
		}
		lo := len(ids)
		for _, d := range n.Op.Dims {
			id := st.dimOf(d.Name)
			if id < 0 {
				id = st.addDim(d.Name)
			}
			ids = append(ids, id)
		}
		st.leafDims[i] = ids[lo:len(ids):len(ids)]
	}
	st.numDims = len(st.dimNames)
	st.dimMask = make([]bool, nn*st.numDims)
	for id := nn - 1; id >= 0; id-- {
		m := st.subtreeDims(id)
		if t.nodeSet[id].IsLeaf() {
			for _, d := range st.leafDims[id] {
				m[d] = true
			}
		} else {
			for _, c := range st.children[id] {
				orMask(m, st.subtreeDims(c))
			}
		}
	}
	t.setLdim(spatial)
}

// setLdim recomputes the per-loop interned dim ids and the per-node extent
// products (the spatial ones only when spatial is set) for the tree's
// current nodeSet. Rows alias flat backing buffers that are reused across
// re-binds, so steady-state calls allocate nothing.
func (t *tree) setLdim(spatial bool) {
	total := 0
	for _, n := range t.nodeSet {
		total += len(n.Loops)
	}
	if cap(t.ldimBuf) < total {
		t.ldimBuf = make([]int32, total)
	}
	buf := t.ldimBuf[:total]
	if cap(t.ldim) < len(t.nodeSet) {
		t.ldim = make([][]int32, 0, len(t.nodeSet))
	}
	t.ldim = t.ldim[:0]
	nn, nd := len(t.nodeSet), t.st.numDims
	size := nn * nd
	if spatial {
		size *= 2
	}
	if cap(t.extBuf) < size {
		t.extBuf = make([]int64, size)
	}
	ebuf := t.extBuf[:size]
	for i := range ebuf {
		ebuf[i] = 1
	}
	t.ext, t.sext = ebuf[:nn*nd], ebuf[nn*nd:]
	off := 0
	for i, n := range t.nodeSet {
		row := buf[off : off+len(n.Loops) : off+len(n.Loops)]
		off += len(n.Loops)
		erow, srow := t.ext[i*nd:(i+1)*nd], t.sext
		if spatial {
			srow = t.sext[i*nd : (i+1)*nd]
		}
		for li := range n.Loops {
			l := &n.Loops[li]
			id := t.st.dimOf(l.Dim)
			row[li] = id
			if id < 0 {
				continue
			}
			erow[id] *= int64(l.Extent)
			if spatial && l.Kind == Spatial {
				srow[id] *= int64(l.Extent)
			}
		}
		t.ldim = append(t.ldim, row)
	}
}

// rebind builds the tree view of newRoot reusing t's compiled structure
// tables. newRoot must match t.root's structure — same shape, levels,
// bindings among siblings, and operators (by identity, or by name for
// canonically equal graphs) — while its loop nests are free to differ.
// Because every topological table is id-indexed and shared, the re-bind
// only fills a new nodeSet slice in one lockstep walk: a handful of
// allocations regardless of tree size.
func (t *tree) rebind(newRoot *Node) (*tree, error) {
	nt := &tree{}
	if err := t.rebindInto(nt, newRoot); err != nil {
		return nil, err
	}
	return nt, nil
}

// rebindInto is rebind writing into a caller-owned tree view, reusing its
// nodeSet backing array. It is what makes the batch and delta evaluation
// paths allocation-free: one view is re-filled per candidate.
func (t *tree) rebindInto(nt *tree, newRoot *Node) error {
	nt.root = newRoot
	nt.st = t.st
	if cap(nt.nodeSet) < len(t.nodeSet) {
		nt.nodeSet = make([]*Node, 0, len(t.nodeSet))
	}
	nt.nodeSet = nt.nodeSet[:0]
	if err := t.rebindWalk(nt, newRoot); err != nil {
		return &structureError{err: err}
	}
	nt.setLdim(true)
	return nil
}

// rebindWalk validates one node against the template node at the same
// pre-order position and appends it to the view's nodeSet.
func (t *tree) rebindWalk(nt *tree, n *Node) error {
	pos := len(nt.nodeSet)
	if pos >= len(t.nodeSet) {
		return invalidf("core: tree shape at %q differs from the compiled structure", n.Name)
	}
	tpl := t.nodeSet[pos]
	if (tpl.Op == nil) != (n.Op == nil) || len(tpl.Children) != len(n.Children) {
		return invalidf("core: tree shape at %q differs from the compiled structure", n.Name)
	}
	if tpl.Level != n.Level {
		return invalidf("core: node %q at level %d, compiled structure has level %d", n.Name, n.Level, tpl.Level)
	}
	if tpl.Op != nil && tpl.Op != n.Op && tpl.Op.Name != n.Op.Name {
		return invalidf("core: leaf %q computes %q, compiled structure has %q", n.Name, n.Op.Name, tpl.Op.Name)
	}
	// Binding only matters between siblings; single-child and leaf
	// bindings are ignored by the analysis.
	if tpl.Op == nil && len(tpl.Children) > 1 && tpl.Binding != n.Binding {
		return invalidf("core: node %q bound %s, compiled structure has %s", n.Name, n.Binding, tpl.Binding)
	}
	nt.nodeSet = append(nt.nodeSet, n)
	for _, c := range n.Children {
		if err := t.rebindWalk(nt, c); err != nil {
			return err
		}
	}
	return nil
}

// StructureSignature renders the tiling-independent structure of a tree —
// shape, node levels, bindings and operator names, but no loop nests — as a
// canonical string. Two trees over canonically equal graphs with equal
// signatures are mutually re-bindable via Program.WithTiling; a key built
// on it (the evaluation service's batch grouping) lets one Program serve
// all tilings of a structure.
func StructureSignature(root *Node) string {
	var b strings.Builder
	writeSignature(&b, root)
	return b.String()
}

func writeSignature(b *strings.Builder, n *Node) {
	if n.IsLeaf() {
		fmt.Fprintf(b, "(L%d %s)", n.Level, n.Op.Name)
		return
	}
	fmt.Fprintf(b, "(L%d %s", n.Level, n.Binding)
	for _, c := range n.Children {
		b.WriteByte(' ')
		writeSignature(b, c)
	}
	b.WriteByte(')')
}

// lcaIDs returns the least common ancestor of the given node ids: the first
// ancestor of ids[0] whose pre-order interval contains every id.
func (t *tree) lcaIDs(ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	a := ids[0]
	for {
		all := true
		for _, id := range ids {
			if !t.subtreeContains(a, id) {
				all = false
				break
			}
		}
		if all || t.st.parent[a] < 0 {
			return a
		}
		a = t.st.parent[a]
	}
}

// subtreeContains reports whether node n's subtree contains the node with
// the given pre-order id: an O(1) interval test against the structure
// tables.
func (t *tree) subtreeContains(n, id int) bool {
	return n <= id && id < n+t.st.size[n]
}

// childToward returns n's direct child on the path to leaf (or leaf itself
// when n is the leaf). All arguments and results are pre-order ids.
func (t *tree) childToward(n, leaf int) int {
	child := leaf
	for m := leaf; m >= 0 && m != n; m = t.st.parent[m] {
		child = m
	}
	return child
}

// dimExtentAt is DimExtent on interned dim ids: the product of all loop
// extents of node m whose dim interned to dim. The analysis loops use these
// forms to replace string hashing with int32 compares.
func (t *tree) dimExtentAt(m int, dim int32) int {
	if dim < 0 {
		// Dims outside the universe match no loop.
		return 1
	}
	return int(t.ext[m*t.st.numDims+int(dim)])
}

// spatialExtentAt is SpatialExtent on interned dim ids.
func (t *tree) spatialExtentAt(m int, dim int32) int {
	if dim < 0 {
		return 1
	}
	return int(t.sext[m*t.st.numDims+int(dim)])
}

// covBelowID is the chunk of dimension dim covered per iteration step of
// node n along the path toward leaf: the product of extents of dim loops at
// all path nodes strictly below n.
func (t *tree) covBelowID(n, leaf int, dim int32) int {
	cov := 1
	for m := leaf; m >= 0 && m != n; m = t.st.parent[m] {
		cov *= t.dimExtentAt(m, dim)
	}
	return cov
}

// stepCovID is the extent of dimension dim covered by one temporal step of
// node n on the path to leaf: the node's own spatial extents times
// everything below. This is the slice-defining quantity of Sec 5.1.1 — the
// slice extent stays constant across time steps and is determined by the
// spatial loops (and the subtree chunk).
func (t *tree) stepCovID(n, leaf int, dim int32) int {
	return t.spatialExtentAt(n, dim) * t.covBelowID(n, leaf, dim)
}

// covAtID is the full extent of dim covered by node n (all loops at n and
// below, along the path to leaf).
func (t *tree) covAtID(n, leaf int, dim int32) int {
	return t.dimExtentAt(n, dim) * t.covBelowID(n, leaf, dim)
}
