package core

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/workload"
)

// Legality: every rejection Compile and Evaluate can produce is one entry
// of the ordered rule table below — one predicate and one message per
// rule — run by one runner in two modes:
//
//   - fail-fast: the first violation's error, nothing allocated when the
//     point is legal. Compile runs the arch, structure and placement
//     phases, Evaluate and Explain the tiling phase (restricted by the
//     delta path's dirty masks) and the resource and capacity phases on
//     the usage figures they compute anyway, and QuickReject every phase
//     but capacity, with no Program.
//   - collect: every violation with its locus, in the order fail-fast
//     meets them (AnalyzeStatic). So the first collected violation is the
//     very error the pipeline returns, and a point with none compiles and
//     passes every check: mappers may prune on violations without changing
//     search results on valid points.

// Rule keys identify the static rules. They are stable: internal/check maps
// them to public diagnostic codes.
const (
	RuleArch          = "arch-spec"       // architecture spec invalid
	RuleLeafChildren  = "leaf-children"   // leaf tile has children
	RuleDupOp         = "dup-op"          // operator appears in two leaves
	RuleInteriorEmpty = "interior-empty"  // interior node without children
	RuleLevelOrder    = "level-order"     // child level above its parent
	RuleOpNoLeaf      = "op-no-leaf"      // operator has no leaf tile
	RuleLevelRange    = "level-range"     // node level outside architecture
	RuleCoverage      = "tiling-coverage" // loop extents do not tile a dim exactly
	RuleLoopExtent    = "loop-extent"     // loop extent < 1
	RuleLoopDim       = "loop-dim"        // loop over a dim foreign to the subtree
	RulePEBudget      = "pe-budget"       // spatial fanout exceeds the PE array
	RuleUnitUsage     = "unit-usage"      // level instance occupancy exceeded
	RuleCapacity      = "capacity"        // per-instance footprint over buffer capacity
)

// Violation is one statically detected problem: a rule key plus enough
// locus (node, operator, dim, loop index, level) for a front-end to point
// at the offending token, and the exact error the Compile/Evaluate
// pipeline would have produced (errors.Is-matching ErrInvalidMapping or
// ErrInfeasible).
type Violation struct {
	Rule string
	Node string // tile name, "" for graph- or arch-level rules
	Op   string // operator name, when the rule concerns one
	Dim  string // dimension name, when the rule concerns one
	Loop int    // index into the node's Loops, -1 otherwise
	Lvl  int    // memory level, -1 otherwise
	Err  error
}

// Infeasible reports whether the violation is a resource limit
// (ErrInfeasible) rather than a structural error (ErrInvalidMapping).
func (v Violation) Infeasible() bool { return isMark(v.Err, ErrInfeasible) }

func isMark(err, mark error) bool {
	if err == nil {
		return false
	}
	type iser interface{ Is(error) bool }
	if m, ok := err.(iser); ok {
		return m.Is(mark)
	}
	return err == mark
}

// flag is a violation of a rule without locus; the predicates fill in theirs.
func flag(err error) *Violation {
	return &Violation{Loop: -1, Lvl: -1, Err: err}
}

// Monotonicity classifies one rule's violation predicate as a function of
// any single loop extent, everything else held fixed. The search-space
// analyzer (internal/spaceck) uses it to order its probes — high-pressure
// corners first when hunting refutations of a monotone-increasing rule,
// low-pressure corners first when hunting witnesses — and DESIGN.md §12
// builds its soundness argument on it. The declarations are pinned against
// brute force in monotone_test.go.
type Monotonicity int

const (
	// MonoIndependent: the rule never reads loop extents; its verdict is a
	// function of tree structure, bindings, and the architecture alone.
	MonoIndependent Monotonicity = iota
	// MonoIncreasing: the violation set is upward-closed — if the rule
	// fires at extent x it fires at every extent y >= x (resource usage is
	// non-decreasing in every extent, so exceeding a budget is permanent).
	MonoIncreasing
	// MonoDecreasing: the violation set is downward-closed — if the rule
	// fires at extent x it fires at every extent y <= x.
	MonoDecreasing
	// MonoExact: an equality or divisor constraint; the violation set is
	// neither upward- nor downward-closed in general.
	MonoExact
)

// String implements fmt.Stringer.
func (m Monotonicity) String() string {
	switch m {
	case MonoIndependent:
		return "independent"
	case MonoIncreasing:
		return "increasing"
	case MonoDecreasing:
		return "decreasing"
	case MonoExact:
		return "exact"
	}
	return "unknown"
}

// RuleMonotonicity reports the declared monotonicity of a static rule's
// violation predicate in any single loop extent. It panics on a rule key
// outside the Rule* constants.
func RuleMonotonicity(rule string) Monotonicity {
	for i := range rules {
		if rules[i].key == rule {
			return rules[i].mono
		}
	}
	panic("core: no monotonicity declared for rule " + rule)
}

// RuleKeys lists every static rule key in check order, for exhaustive
// table-driven tests over the rule set.
func RuleKeys() []string {
	keys := make([]string, len(rules))
	for i := range rules {
		keys[i] = rules[i].key
	}
	return keys
}

// AnalyzeStatic runs every legality and resource rule over the tree and
// returns all violations, in the order the fail-fast pipeline would
// encounter them — so for any rejected mapping, the first violation's Err
// has the same text Compile/Evaluate would return. It never allocates a
// Program; the only compiled state it builds is the tree's own index
// tables.
func AnalyzeStatic(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) []Violation {
	var vs []Violation
	x := &ruleInput{t: indexTree(root), g: g, spec: spec, opts: opts}
	_ = x.check(allPhases, &vs) // collect mode reports through vs
	return vs
}

// QuickReject is the mapper's pre-screen: every rule but capacity, fail
// fast, over the tree index alone — no access groups, no Program. It
// returns the exact error the Compile/Evaluate pipeline would produce, or
// nil when no rule but capacity rejects the point. A nil result therefore
// never changes search outcomes: the point proceeds to full evaluation
// exactly as before.
func QuickReject(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) error {
	a := quickArenas.Get().(*quickArena)
	a.t.indexRoot(root)
	a.x = ruleInput{t: &a.t, g: g, spec: spec, opts: opts}
	err := a.x.check(allPhases&^phaseCapacity, nil)
	// Keep no candidate tree or graph alive in the pool.
	a.x.unbind()
	a.t.root = nil
	clear(a.t.nodeSet)
	clear(a.st.leafOps)
	clear(a.st.dimNames)
	quickArenas.Put(a)
	return err
}

// quickArena is one of QuickReject's pooled indexes: a tree and its
// structure whose tables keep their capacity from candidate to candidate,
// so a steady-state pre-screen allocates only what a rejection returns.
type quickArena struct {
	t  tree
	st structure
	x  ruleInput
}

var quickArenas = sync.Pool{New: func() any {
	a := new(quickArena)
	a.t.st = &a.st
	return a
}}

// phase groups the rules by the pipeline step that checks them.
type phase uint8

const (
	phaseArch      phase = 1 << iota // the architecture spec is well-formed
	phaseStructure                   // the tile tree is well-formed
	phasePlacement                   // operators sit on leaves, nodes on existing levels
	phaseTiling                      // the loop nests tile every dimension exactly
	phaseResources                   // PE and level-instance budgets
	phaseCapacity                    // per-instance buffer capacities

	allPhases = phaseCapacity<<1 - 1
)

// skipped reports whether opts turn the phase's checks off.
func (ph phase) skipped(opts Options) bool {
	return ph == phaseResources && opts.SkipPECheck || ph == phaseCapacity && opts.SkipCapacityCheck
}

// scope is the domain a rule's predicate ranges over.
type scope uint8

const (
	once      scope = iota
	eachNode        // tiles in pre-order
	eachOp          // graph operators in order
	eachOpDim       // dims of every operator that has a leaf
	eachLoop        // loops of every tile, in pre-order
	eachLevel       // on-chip memory levels
)

// at locates one predicate evaluation: node is a pre-order id (the leaf
// for eachOpDim), op an index into g.Ops, dim an index into that
// operator's Dims, loop an index into the node's Loops, lvl a level.
type at struct{ node, op, dim, loop, lvl int }

// ruleInput is what the predicates read: the tree index, the workload and
// architecture, and — for the resource and capacity phases — the usage
// figures, which the evaluator passes in and the static passes compute on
// demand (ready). dirty/dirtyUp, when set, restrict the tiling phase to the
// items a delta re-evaluation changed.
type ruleInput struct {
	t    *tree
	g    *workload.Graph
	spec *arch.Spec
	opts Options

	dirty, dirtyUp []bool

	pes       int
	units     []int
	footprint []int64

	fired ruleSet // collect mode: rules that have reported a violation
}

// unbind drops the input's references, so an arena holding it between
// evaluations keeps no tree, graph or architecture alive.
func (x *ruleInput) unbind() { *x = ruleInput{} }

// Rule ids index the table; bits of a ruleSet.
const (
	rArch = iota
	rLevelOrder
	rLeafChildren
	rDupOp
	rInteriorEmpty
	rOpNoLeaf
	rLevelRange
	rCoverage
	rLoopExtent
	rLoopDim
	rPEBudget
	rUnitUsage
	rCapacity
	numRules
)

type ruleSet uint16

// Collect-mode gates: a rule whose inputs a fired rule invalidates is
// skipped. An invalid architecture has no level geometry; a malformed tree
// has no subtree dims or usage recursion (though every operator's leaf can
// still be looked up); an out-of-range level cannot index the level tables.
const (
	afterArch   ruleSet = 1 << rArch
	afterShape          = afterArch | 1<<rLevelOrder | 1<<rLeafChildren | 1<<rDupOp | 1<<rInteriorEmpty
	afterLevels         = afterShape | 1<<rLevelRange
)

// rule is one entry of the legality table. Consecutive entries of one phase
// and scope are checked item by item, each item against every entry in
// table order, and share their needs.
type rule struct {
	key   string
	phase phase
	scope scope
	mono  Monotonicity
	// needs is the collect-mode gate: the rules that must not have fired
	// for this one to run. Fail-fast mode stops at the first violation,
	// so it never meets a fired gate.
	needs ruleSet
	// check returns the violation at a, or nil.
	check func(x *ruleInput, a at) *Violation
}

// rules is the legality table, in check order. Within a tile, the level
// order against the parent precedes the tile's own shape rules, matching
// the pre-order walk.
var rules = [numRules]rule{
	rArch: {RuleArch, phaseArch, once, MonoIndependent, 0,
		func(x *ruleInput, _ at) *Violation {
			if err := x.spec.Validate(); err != nil {
				return flag(err)
			}
			return nil
		}},
	rLevelOrder: {RuleLevelOrder, phaseStructure, eachNode, MonoIndependent, afterArch,
		func(x *ruleInput, a at) (v *Violation) {
			n, p := x.t.nodeSet[a.node], x.t.st.parent[a.node]
			if p >= 0 && n.Level > x.t.nodeSet[p].Level {
				pn := x.t.nodeSet[p]
				v = flag(invalidf("core: child %q at level %d above parent %q at level %d", n.Name, n.Level, pn.Name, pn.Level))
				v.Node = n.Name
			}
			return v
		}},
	rLeafChildren: {RuleLeafChildren, phaseStructure, eachNode, MonoIndependent, afterArch,
		func(x *ruleInput, a at) (v *Violation) {
			if n := x.t.nodeSet[a.node]; n.IsLeaf() && len(n.Children) > 0 {
				v = flag(invalidf("core: leaf %q has children", n.Name))
				v.Node = n.Name
			}
			return v
		}},
	rDupOp: {RuleDupOp, phaseStructure, eachNode, MonoIndependent, afterArch,
		func(x *ruleInput, a at) (v *Violation) {
			n := x.t.nodeSet[a.node]
			if !n.IsLeaf() || len(n.Children) > 0 {
				return v
			}
			if first, _ := x.t.st.leafOf(n.Op); first != a.node {
				v = flag(invalidf("core: operator %q appears in two leaves (%q, %q)", n.Op.Name, x.t.nodeSet[first].Name, n.Name))
				v.Node, v.Op = n.Name, n.Op.Name
			}
			return v
		}},
	rInteriorEmpty: {RuleInteriorEmpty, phaseStructure, eachNode, MonoIndependent, afterArch,
		func(x *ruleInput, a at) (v *Violation) {
			if n := x.t.nodeSet[a.node]; !n.IsLeaf() && len(n.Children) == 0 {
				v = flag(invalidf("core: interior node %q has no children and no operator", n.Name))
				v.Node = n.Name
			}
			return v
		}},
	rOpNoLeaf: {RuleOpNoLeaf, phasePlacement, eachOp, MonoIndependent, afterArch,
		func(x *ruleInput, a at) (v *Violation) {
			op := x.g.Ops[a.op]
			if _, ok := x.t.st.leafOf(op); !ok {
				v = flag(invalidf("core: operator %q has no leaf tile in the tree", op.Name))
				v.Op = op.Name
			}
			return v
		}},
	rLevelRange: {RuleLevelRange, phasePlacement, eachNode, MonoIndependent, afterShape,
		func(x *ruleInput, a at) (v *Violation) {
			if n := x.t.nodeSet[a.node]; n.Level < 0 || n.Level >= x.spec.NumLevels() {
				v = flag(invalidf("core: node %q level %d outside architecture with %d levels", n.Name, n.Level, x.spec.NumLevels()))
				v.Node = n.Name
			}
			return v
		}},
	// The leaf-to-root product must equal the dim size exactly; the
	// violation set has holes at every divisor completion.
	rCoverage: {RuleCoverage, phaseTiling, eachOpDim, MonoExact, afterShape,
		func(x *ruleInput, a at) (v *Violation) {
			op := x.g.Ops[a.op]
			d, id := op.Dims[a.dim], x.t.st.leafDims[a.node][a.dim]
			cov := 1
			for m := a.node; m >= 0; m = x.t.st.parent[m] {
				cov *= x.t.dimExtentAt(m, id)
			}
			if cov != d.Size {
				v = flag(&coverageError{op: op.Name, dim: d.Name, cov: cov, want: d.Size})
				v.Op, v.Dim, v.Node = op.Name, d.Name, x.t.nodeSet[a.node].Name
			}
			return v
		}},
	rLoopExtent: {RuleLoopExtent, phaseTiling, eachLoop, MonoDecreasing, afterShape,
		func(x *ruleInput, a at) (v *Violation) {
			n := x.t.nodeSet[a.node]
			if l := n.Loops[a.loop]; l.Extent < 1 {
				v = flag(invalidf("core: node %q loop %s has extent < 1", n.Name, l))
				v.Node, v.Dim, v.Loop = n.Name, l.Dim, a.loop
			}
			return v
		}},
	// A loop over a foreign dim is foreign at any extent.
	rLoopDim: {RuleLoopDim, phaseTiling, eachLoop, MonoIndependent, afterShape,
		func(x *ruleInput, a at) (v *Violation) {
			if d := x.t.ldim[a.node][a.loop]; d < 0 || !x.t.st.subtreeDims(a.node)[d] {
				n := x.t.nodeSet[a.node]
				l := n.Loops[a.loop]
				v = flag(invalidf("core: node %q loop over dim %q that no operator in its subtree iterates", n.Name, l.Dim))
				v.Node, v.Dim, v.Loop = n.Name, l.Dim, a.loop
			}
			return v
		}},
	// Spatial fanout, instance occupancy, and staged footprints are all
	// products of (subsets of) the extents, so usage is non-decreasing in
	// every extent and budget overruns are upward-closed.
	rPEBudget: {RulePEBudget, phaseResources, once, MonoIncreasing, afterLevels,
		func(x *ruleInput, _ at) (v *Violation) {
			if have := x.spec.TotalPEs(); x.pes > have {
				v = flag(infeasiblef("core: mapping uses %d PEs, chip has %d", x.pes, have))
				v.Node = x.t.root.Name
			}
			return v
		}},
	rUnitUsage: {RuleUnitUsage, phaseResources, eachLevel, MonoIncreasing, afterLevels,
		func(x *ruleInput, a at) (v *Violation) {
			if inst := x.spec.Instances(a.lvl); x.units[a.lvl] > inst {
				v = flag(infeasiblef("core: mapping occupies %d level-%d (%s) instances, chip has %d",
					x.units[a.lvl], a.lvl, x.spec.Levels[a.lvl].Name, inst))
				v.Node, v.Lvl = x.t.root.Name, a.lvl
			}
			return v
		}},
	rCapacity: {RuleCapacity, phaseCapacity, eachLevel, MonoIncreasing, afterLevels,
		func(x *ruleInput, a at) (v *Violation) {
			if need, have := x.footprint[a.lvl], x.spec.CapacityWords(a.lvl); need > have {
				v = flag(&CapacityError{Level: a.lvl, LevelName: x.spec.Levels[a.lvl].Name, NeedWords: need, HaveWords: have})
				v.Lvl = a.lvl
			}
			return v
		}},
}

// check runs the table's rules of the given phases in order. With out nil
// it fails fast: it returns the first violation's error and allocates
// nothing when the point is legal. Otherwise it appends every violation to
// *out and returns nil.
func (x *ruleInput) check(phases phase, out *[]Violation) error {
	for lo := 0; lo < numRules; {
		r := &rules[lo]
		hi := lo + 1
		for hi < numRules && rules[hi].phase == r.phase && rules[hi].scope == r.scope {
			hi++
		}
		if phases&r.phase != 0 && !r.phase.skipped(x.opts) && x.fired&r.needs == 0 {
			if err := x.scan(lo, hi, out); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// scan checks rules[lo:hi], which share a phase and scope, over their
// domain.
func (x *ruleInput) scan(lo, hi int, out *[]Violation) error {
	x.ready(rules[lo].phase)
	t := x.t
	switch rules[lo].scope {
	case once:
		return x.try(lo, hi, at{}, out)
	case eachNode:
		for i := range t.nodeSet {
			if err := x.try(lo, hi, at{node: i}, out); err != nil {
				return err
			}
		}
	case eachOp:
		for k := range x.g.Ops {
			if err := x.try(lo, hi, at{op: k}, out); err != nil {
				return err
			}
		}
	case eachOpDim:
		for k, op := range x.g.Ops {
			// The coverage product reads exactly the leaf-to-root path.
			leaf, ok := t.st.leafOf(op)
			if !ok || x.dirty != nil && !x.dirty[leaf] && !x.dirtyUp[leaf] {
				continue
			}
			for j := range op.Dims {
				if err := x.try(lo, hi, at{node: leaf, op: k, dim: j}, out); err != nil {
					return err
				}
			}
		}
	case eachLoop:
		for i, n := range t.nodeSet {
			if x.dirty != nil && !x.dirty[i] {
				continue
			}
			for li := range n.Loops {
				if err := x.try(lo, hi, at{node: i, loop: li}, out); err != nil {
					return err
				}
			}
		}
	case eachLevel:
		for l := 0; l < x.spec.DRAMLevel(); l++ {
			if err := x.try(lo, hi, at{lvl: l}, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// try evaluates rules[lo:hi] at one item.
func (x *ruleInput) try(lo, hi int, a at, out *[]Violation) error {
	for id := lo; id < hi; id++ {
		v := rules[id].check(x, a)
		if v == nil {
			continue
		}
		if out == nil {
			return v.Err
		}
		v.Rule = rules[id].key
		*out = append(*out, *v)
		x.fired |= 1 << id
	}
	return nil
}

// ready computes the inputs a phase reads that the caller did not supply:
// the dim tables of a bare index, and the usage figures of the static
// passes. The evaluator supplies all of them, so for it this is a no-op.
func (x *ruleInput) ready(ph phase) {
	t := x.t
	switch ph {
	case phaseTiling:
		if t.ldim == nil {
			t.indexDims(false)
		}
	case phaseResources:
		if x.units == nil {
			L := x.spec.NumLevels()
			x.pes = NumPE(t.root)
			x.units = t.unitUsageInto(make([]int, len(t.nodeSet)*L), L)
		}
	case phaseCapacity:
		if x.footprint == nil {
			buildStructure(t) // the tiling phase ran first and indexed the dims
			L := x.spec.NumLevels()
			rel := confRelTable(t, t.confinements(x.g))
			x.footprint = t.footprintInto(make([]int64, len(t.nodeSet)*L), L, rel, densityOf(x.g), nil)
		}
	}
}
