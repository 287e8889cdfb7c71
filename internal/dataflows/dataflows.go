// Package dataflows provides the named fusion dataflows of Table 5 as
// parameterized analysis-tree templates: Layerwise, Uni-pipe, the four FLAT
// granularities, Chimera and the TileFlow dataflow for self-attention, and
// Layerwise, Fused-Layer, ISOS and TileFlow for convolution chains.
//
// A template exposes a factor space (named tiling factors, each a divisor of
// a dimension) and builds a core.Node tree from a concrete factor
// assignment. The mapper searches the factor space; the experiments use
// mapper-tuned factors so the comparison between dataflows is fair, as
// Sec 7.3 requires ("we utilize TileFlow's mapper to determine the tiling
// factors for all the different dataflows").
package dataflows

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// FactorSpec describes one tiling factor of a template's search space: the
// factor must be a divisor of Total.
type FactorSpec struct {
	Key   string
	Total int
	// Doc explains what the factor tiles.
	Doc string
}

// Choices enumerates the legal values of the factor (the divisors of Total).
func (f FactorSpec) Choices() []int { return Divisors(f.Total) }

// Dataflow is a buildable dataflow template.
type Dataflow interface {
	// Name is the Table 5 name.
	Name() string
	// Graph is the workload the dataflow schedules.
	Graph() *workload.Graph
	// Factors is the tiling-factor search space.
	Factors() []FactorSpec
	// DefaultFactors is a reasonable untuned assignment.
	DefaultFactors() map[string]int
	// Build constructs the analysis tree for a factor assignment.
	Build(f map[string]int) (*core.Node, error)
}

// StructureStable lets a template declare that every factor assignment
// Build accepts yields a tree with the same structure. Nothing outside
// perfbench reads it: a tile search compiles its first candidate and
// recompiles only when a re-bind reports core.ErrStructureMismatch. The
// interface and IsStructureStable stay only because perfbench's traced
// tune wrapper compiles against them, and go with the next perfbench
// change.
type StructureStable interface {
	// StructureStable reports whether Build's tree structure is
	// independent of the factor assignment.
	StructureStable() bool
}

// Refiller is an optional Dataflow capability: Refill rewrites, in place,
// the loop nests of a tree the same template's Build returned, for another
// factor assignment. It accepts and rejects exactly the assignments Build
// does, with the same trees and byte-identical errors, and a feasible
// refill allocates nothing. A rejected refill may leave dst half written;
// the next accepted one rewrites every node. The caller owns dst: a tree
// compiled into a core.Program keeps its nodes there and must never be
// refilled.
type Refiller interface {
	Refill(dst *core.Node, f map[string]int) error
}

// IsStructureStable reports whether the dataflow declares a
// factor-independent tree structure. Only perfbench calls it.
func IsStructureStable(df Dataflow) bool {
	s, ok := df.(StructureStable)
	return ok && s.StructureStable()
}

// Divisors lists the positive divisors of n in increasing order.
func Divisors(n int) []int {
	if n <= 0 {
		return nil
	}
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	sort.Ints(out)
	return out
}

// DivisorAtMost returns the largest divisor of n that is ≤ cap (at least 1).
func DivisorAtMost(n, cap int) int {
	if n < 1 || cap < 1 {
		return 1
	}
	if n <= cap {
		return n
	}
	if n%cap == 0 {
		return cap
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d != 0 {
			continue
		}
		if d <= cap && d > best {
			best = d
		}
		if q := n / d; q <= cap && q > best {
			best = q
		}
	}
	return best
}

// DivisorNear returns the divisor of n closest to target (ties prefer the
// larger divisor).
func DivisorNear(n, target int) int {
	best, bestDist := 1, target
	for _, d := range Divisors(n) {
		dist := d - target
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist || (dist == bestDist && d > best) {
			best, bestDist = d, dist
		}
	}
	return best
}

// factorReader reads factors with divisibility validation. Only the first
// failure is formatted: it is the one a build reports.
type factorReader struct {
	f   map[string]int
	err error
}

func (r *factorReader) get(key string, total int) int {
	v, ok := r.f[key]
	if !ok || v <= 0 {
		v = 1
	}
	if total%v != 0 {
		if r.err == nil {
			r.err = fmt.Errorf("factor %s=%d does not divide %d", key, v, total)
		}
		return 1
	}
	return v
}

// maxOuterDims bounds the distinct dims one build multiplies outer factors
// over: the dims a template tiles above its leaves, a subset of the six
// attention dims, of a conv chain's h, w and l, or a layerwise template's
// three split dims.
const maxOuterDims = 8

// outerProds accumulates the per-dim products of outer tiling factors in
// fixed arrays, so a build keeps it on the stack. A template touches a
// handful of dims per build, so a linear assoc list beats a map; of()
// returns 0 for a dim never multiplied, matching the map-lookup miss it
// replaced.
type outerProds struct {
	n    int
	dims [maxOuterDims]string
	prod [maxOuterDims]int
}

func (o *outerProds) mul(dim string, v int) {
	for i := 0; i < o.n; i++ {
		if o.dims[i] == dim {
			o.prod[i] *= v
			return
		}
	}
	o.dims[o.n], o.prod[o.n] = dim, v
	o.n++
}

func (o *outerProds) of(dim string) int {
	for i := 0; i < o.n; i++ {
		if o.dims[i] == dim {
			return o.prod[i]
		}
	}
	return 0
}

// treeSlab hands out the nodes, child lists and loop nests of one template
// tree from three slabs sized up front, each loop nest at its node's
// maximum length, so a fill routine appends into it without allocating.
type treeSlab struct {
	nodes []core.Node
	kids  []*core.Node
	loops []core.Loop
}

func newTreeSlab(nodes, loops int) *treeSlab {
	return &treeSlab{
		nodes: make([]core.Node, nodes),
		kids:  make([]*core.Node, nodes),
		loops: make([]core.Loop, loops),
	}
}

// node takes the next node, with an empty loop nest of capacity maxLoops
// and room for kids children (appended by the caller).
func (s *treeSlab) node(name string, level int, binding core.Binding, op *workload.Operator, maxLoops, kids int) *core.Node {
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	*n = core.Node{Name: name, Level: level, Binding: binding, Op: op, Loops: s.loops[:0:maxLoops]}
	s.loops = s.loops[maxLoops:]
	if kids > 0 {
		n.Children = s.kids[:0:kids]
		s.kids = s.kids[kids:]
	}
	return n
}

// leafLoopCap is the longest loop nest leafLoops emits for op: at most one
// temporal loop per dim plus two spatial splits.
func leafLoopCap(op *workload.Operator) int { return len(op.Dims) + 2 }

// dimIndex is the position of dim in op.Dims, or -1 when the operator does
// not iterate it (a spatial preference that does not apply).
func dimIndex(op *workload.Operator, dim string) int {
	for i, d := range op.Dims {
		if d.Name == dim {
			return i
		}
	}
	return -1
}

// leafLoops picks the loops for a leaf with the sub-core mesh as the
// spatial bound: it splits up to two dimensions of the remaining extents
// across the available lanes (the PE mesh for MAC operators, the vector
// unit width for the rest), capped by peBudget so that pipelined stages
// share the array, returning the loops in canonical order (temporal loops
// first with reductions innermost, then spatial). rem holds the remaining
// extents positionally parallel to op.Dims. peBudget <= 0 means the whole
// mesh. red, when non-nil, is op's precomputed is-reduction mask parallel
// to op.Dims (templates that build the same leaves per candidate cache it);
// nil recomputes it. The loops are appended to dst.
func leafLoops(dst []core.Loop, op *workload.Operator, spec *arch.Spec, rem []int, spatialDims []string, peBudget int, red []bool) []core.Loop {
	return leafLoopsCapped(dst, op, spec, rem, spatialDims, peBudget, spec.MeshX, spec.MeshY, red)
}

// leafLoopsCapped is leafLoops with explicit per-dimension spatial caps,
// for mappings whose spatial extent spans sub-cores (convolution channel
// mappings bounded by the aggregate array edges).
func leafLoopsCapped(loops []core.Loop, op *workload.Operator, spec *arch.Spec, rem []int, spatialDims []string, peBudget, capX, capY int, red []bool) []core.Loop {
	meshX, meshY := capX, capY
	if meshX <= 0 {
		meshX = spec.MeshX
	}
	if meshY <= 0 {
		meshY = spec.MeshY
	}
	if peBudget <= 0 {
		peBudget = meshX * meshY
	}
	lanes := spec.VectorLanesPerSubcore
	// Up to two spatial splits, tracked by op.Dims position. A preference
	// dim the operator does not iterate gets extent 0, so its split
	// degenerates to 1 and never emits a loop.
	si0, si1 := -1, -1
	sv0, sv1 := 0, 0
	remOf := func(dim string) (int, int) {
		i := dimIndex(op, dim)
		if i < 0 {
			return i, 0
		}
		return i, rem[i]
	}
	if op.Kind.Vector() {
		if len(spatialDims) > 0 {
			i, r := remOf(spatialDims[0])
			si0, sv0 = i, DivisorAtMost(r, lanes)
		}
	} else {
		used := 1
		if len(spatialDims) > 0 {
			i, r := remOf(spatialDims[0])
			si0, sv0 = i, DivisorAtMost(r, min(meshX, peBudget))
			used = sv0
		}
		if len(spatialDims) > 1 && used > 0 {
			i, r := remOf(spatialDims[1])
			si1, sv1 = i, DivisorAtMost(r, min(meshY, max(1, peBudget/used)))
		}
	}
	if si1 >= 0 && si1 == si0 {
		// A repeated spatial preference keeps the later split, matching the
		// map-overwrite semantics this replaced.
		si0 = -1
	}
	spatOf := func(i int) int {
		switch i {
		case si0:
			return sv0
		case si1:
			return sv1
		}
		return 0
	}
	// Canonical order: temporal loops over every dim (outer), spatial
	// loops innermost. Reduction dims go innermost among the temporals so
	// outputs accumulate in place. Two passes give the same stable
	// partition a stable sort on is-reduction would, without the sort.
	var redBuf [16]bool
	if red == nil {
		if len(op.Dims) <= len(redBuf) {
			red = redBuf[:len(op.Dims)]
		} else {
			red = make([]bool, len(op.Dims))
		}
		for i, d := range op.Dims {
			red[i] = op.IsReduction(d.Name)
		}
	}
	for pass := 0; pass < 2; pass++ {
		wantRed := pass == 1
		for i, d := range op.Dims {
			if red[i] != wantRed {
				continue
			}
			e := rem[i]
			if e <= 0 {
				e = 1
			}
			t := e / max(1, spatOf(i))
			if t > 1 {
				loops = append(loops, core.T(d.Name, t))
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		wantRed := pass == 1
		for i, d := range op.Dims {
			if red[i] != wantRed {
				continue
			}
			if s := spatOf(i); s > 1 {
				loops = append(loops, core.S(d.Name, s))
			}
		}
	}
	return loops
}

// macLeafBudget divides the PE mesh among the MAC operators of a fused
// stage when the binding runs them concurrently (Para/Pipe); under Seq/Shar
// each stage gets the whole array in turns. Concurrent stages receive
// partitions proportional to their work so a balanced pipeline wastes no
// lanes; the result is each MAC leaf's individual cap.
func macLeafBudget(spec *arch.Spec, binding core.Binding, ops []*workload.Operator) int {
	mesh := spec.MeshX * spec.MeshY
	if !binding.Spatial() {
		return mesh
	}
	macs := 0
	for _, op := range ops {
		if !op.Kind.Vector() {
			macs++
		}
	}
	if macs <= 1 {
		return mesh
	}
	return max(1, mesh/macs)
}

// macLeafBudgetFor sizes one operator's partition of the mesh under a
// concurrent binding proportionally to its share of the MAC work, rounded
// to a power of two so divisor-based spatial factors still fit.
func macLeafBudgetFor(spec *arch.Spec, binding core.Binding, ops []*workload.Operator, op *workload.Operator) int {
	mesh := spec.MeshX * spec.MeshY
	if !binding.Spatial() || op.Kind.Vector() {
		return mesh
	}
	var total, mine int64
	macs := 0
	for _, o := range ops {
		if o.Kind.Vector() {
			continue
		}
		macs++
		total += o.OpCount()
		if o == op {
			mine = o.OpCount()
		}
	}
	if macs <= 1 || total == 0 {
		return mesh
	}
	share := float64(mine) / float64(total)
	budget := 1
	for budget*2 <= int(share*float64(mesh)) {
		budget *= 2
	}
	return max(1, budget)
}

// remaining computes the leaf extents of each dim of op after the outer
// factors have been applied, positionally parallel to op.Dims. outer maps
// dim name to the product of all outer tiling factors over that dim. The
// result is appended into dst (pass a stack buffer's [:0] to avoid the
// allocation on the mapper's hot path).
func remaining(dst []int, op *workload.Operator, outer *outerProds) ([]int, error) {
	dst = dst[:0]
	for _, d := range op.Dims {
		o := outer.of(d.Name)
		if o == 0 {
			o = 1
		}
		if d.Size%o != 0 {
			return nil, fmt.Errorf("dim %s: outer factors %d do not divide %d", d.Name, o, d.Size)
		}
		dst = append(dst, d.Size/o)
	}
	return dst, nil
}
