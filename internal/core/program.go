package core

import (
	"context"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/energy"
	"repro/internal/workload"
)

// compileCount counts Compile calls process-wide. The static pass promises
// to allocate no Program; the conformance differential test pins that
// promise by asserting the counter does not move across AnalyzeStatic
// calls.
var compileCount atomic.Int64

// CompileCount returns the number of Compile calls made by this process.
func CompileCount() int64 { return compileCount.Load() }

// Program is a compiled analysis tree: the output of the Compile half of
// the Compile → Evaluate pipeline. It owns every result of the
// tiling-independent work — structural validation, the node index and
// subtree interval tables, per-tensor access groups with their invocation
// closures, confinement LCAs, operator counts and the energy table — and
// is immutable after Compile returns, so one Program may serve any number
// of concurrent Evaluate calls.
//
// A Program is bound to one tree (its Root). To evaluate a different
// tiling of the same structure, WithTiling re-binds the compiled tables to
// a new root in one cheap tree walk instead of recompiling.
type Program struct {
	root *Node
	g    *workload.Graph
	spec *arch.Spec
	t    *tree

	// confine maps each confined intermediate tensor to the pre-order id
	// of its LCA node (Sec 5.1.2): its traffic never crosses that node's
	// upper boundary.
	confine map[string]int
	// confRel is the per-(node, group) confinement relation derived from
	// confine — the form the evaluator's hot loops consume.
	confRel [][]confRel
	// pLevel is the memory level each node loads from across its upper
	// boundary, or -1 when no boundary exists (root at DRAM, or a child
	// sharing its parent's buffer).
	pLevel []int
	// attributed lists the tensors the structure can ever attribute
	// boundary traffic to, in first-attribution order. It fixes the
	// TensorDM key set, letting the scratch arena preallocate the rows.
	attributed []string
	// maxIndexDims is the widest access index across the graph's
	// operators, sizing the per-access scratch vectors.
	maxIndexDims int
	// density holds the effective density of each non-dense tensor;
	// dense tensors are absent.
	density map[string]float64
	// opDensity is the per-leaf gating density (Graph.OpDensity of the
	// leaf's operator), indexed by pre-order node id; 1.0 elsewhere.
	opDensity []float64
	macs      float64
	vops      float64
	etab      *energy.Table

	// pool shares scratch arenas across this Program and its WithTiling
	// copies; it lives behind a pointer so Program stays copyable.
	pool *scratchPool
}

// Compile runs the tiling-independent half of TileFlow's analysis once:
// architecture validation, tree indexing (pre-order ids, parent links,
// subtree intervals), structural mapping legality, per-tensor access
// grouping with Seq-eviction and invocation-dimension closures,
// confinement LCAs, workload op counts and the energy table. The returned
// Program is immutable and safe for concurrent use; its Evaluate method
// performs only the tiling-dependent work.
func Compile(root *Node, g *workload.Graph, spec *arch.Spec) (*Program, error) {
	compileCount.Add(1)
	x := &ruleInput{g: g, spec: spec}
	if err := x.check(phaseArch, nil); err != nil {
		return nil, err
	}
	t, err := buildTree(root)
	if err != nil {
		return nil, err
	}
	x.t = t
	if err := x.check(phasePlacement, nil); err != nil {
		return nil, err
	}
	confine := t.confinements(g)
	opDensity := make([]float64, len(t.nodeSet))
	for i, n := range t.nodeSet {
		opDensity[i] = 1
		if n.IsLeaf() {
			opDensity[i] = g.OpDensity(n.Op)
		}
	}
	p := &Program{
		root:      root,
		g:         g,
		spec:      spec,
		t:         t,
		confine:   confine,
		confRel:   confRelTable(t, confine),
		density:   densityOf(g),
		opDensity: opDensity,
		macs:      macOps(g),
		vops:      vectorOps(g),
		etab:      energy.TableFor(spec),
		pool:      &scratchPool{},
	}
	p.pLevel = make([]int, len(t.nodeSet))
	for i := range t.nodeSet {
		p.pLevel[i] = parentLevelOf(t, spec, i)
	}
	// The tensors the data-movement pass can attribute traffic to are a
	// pure function of the structure: walk (node, group) pairs in the
	// exact order accountDataMovement does and collect first uses.
	seen := map[string]bool{}
	for i := range t.nodeSet {
		if p.pLevel[i] < 0 {
			continue
		}
		for gi := range t.st.groups[i] {
			if p.confRel[i][gi] != confNone {
				continue
			}
			tensor := t.st.groups[i][gi].tensor
			if !seen[tensor] {
				seen[tensor] = true
				p.attributed = append(p.attributed, tensor)
			}
		}
	}
	// Stamp every group with its tensor's index into the attributed list
	// (or -1), so the evaluator addresses the arena's flat per-tensor rows
	// without hashing the name. The structure is owned by this Compile and
	// shared read-only afterwards, so stamping here is safe.
	tidOf := make(map[string]int, len(p.attributed))
	for i, tensor := range p.attributed {
		tidOf[tensor] = i
	}
	for i := range t.st.groups {
		for gi := range t.st.groups[i] {
			g := &t.st.groups[i][gi]
			if id, ok := tidOf[g.tensor]; ok {
				g.tensorID = id
			}
		}
	}
	for _, op := range g.Ops {
		for _, r := range op.Reads {
			if len(r.Index) > p.maxIndexDims {
				p.maxIndexDims = len(r.Index)
			}
		}
		if len(op.Write.Index) > p.maxIndexDims {
			p.maxIndexDims = len(op.Write.Index)
		}
	}
	return p, nil
}

// parentLevelOf reports the memory level node i loads from across its
// upper boundary, or -1 when no boundary exists. A root tile below the
// DRAM level has an implicit DRAM parent (the paper's trees end at the
// outermost on-chip level; off-chip memory is always above them). A child
// at its parent's own level shares the buffer: no boundary.
func parentLevelOf(t *tree, spec *arch.Spec, i int) int {
	p := t.st.parent[i]
	if p < 0 {
		if t.nodeSet[i].Level < spec.DRAMLevel() {
			return spec.DRAMLevel()
		}
		return -1
	}
	if t.nodeSet[p].Level == t.nodeSet[i].Level {
		return -1
	}
	return t.nodeSet[p].Level
}

// Root returns the tree the Program is bound to.
func (p *Program) Root() *Node { return p.root }

// Graph returns the workload graph the Program was compiled against.
func (p *Program) Graph() *workload.Graph { return p.g }

// Spec returns the architecture the Program was compiled against.
func (p *Program) Spec() *arch.Spec { return p.spec }

// Evaluate runs the tiling-dependent half of the analysis on the
// Program's bound tree: loop-nest validation, data movement, resource and
// capacity checks, latency, energy and bandwidth. The heavy lifting runs
// on a pooled scratch arena; the returned Result is an independent copy,
// so concurrent calls on one Program are safe.
func (p *Program) Evaluate(ctx context.Context, opts Options) (*Result, error) {
	s := p.getScratch()
	defer p.putScratch(s)
	res, err := p.EvaluateInto(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	return cloneResult(res), nil
}

// EvaluateInto is Evaluate running entirely inside the caller-owned
// scratch arena: the returned Result aliases the arena and is valid only
// until its next use. Steady-state calls perform zero heap allocations —
// this is the throughput primitive under EvaluateBatch and the mappers.
// The arena must come from this Program family's NewScratch.
func (p *Program) EvaluateInto(ctx context.Context, s *Scratch, opts Options) (*Result, error) {
	return p.evaluateInto(ctx, s, p.t, opts)
}

// evaluateInto runs the analysis for an explicit tree view (the batch path
// re-binds s.view per candidate and passes it here).
func (p *Program) evaluateInto(ctx context.Context, s *Scratch, t *tree, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &evaluator{ctx: ctx, p: p, t: t, opts: opts, s: s}
	return e.run()
}

// WithTiling re-binds the compiled Program to a new root carrying a
// different tiling of the same structure: same tree shape, levels,
// sibling bindings and operators (matched by identity, or by name when
// the root was built over a canonically equal copy of the graph), with
// loop nests free to differ. The re-bind is one tree walk sharing every
// compile-time table with the receiver — a handful of allocations.
// Returns ErrInvalidMapping when the new root's structure does not match.
func (p *Program) WithTiling(root *Node) (*Program, error) {
	if root == p.root {
		return p, nil
	}
	nt, err := p.t.rebind(root)
	if err != nil {
		return nil, err
	}
	np := *p
	np.root = root
	np.t = nt
	return &np, nil
}
