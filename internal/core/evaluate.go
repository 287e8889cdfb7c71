package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/energy"
	"repro/internal/workload"
)

// ErrInfeasible marks a design point that violates a hardware resource
// limit — over the PE budget, over a level's instance count, or over a
// buffer capacity. errors.Is(err, ErrInfeasible) matches every such error,
// letting callers (mappers pruning candidates, the evaluation service
// picking a status code) separate infeasible points from caller mistakes
// and internal faults.
var ErrInfeasible = errors.New("core: infeasible mapping")

// ErrInvalidMapping marks a structurally broken mapping: a tree that is
// not a complete, exact tiling of the workload on the architecture.
var ErrInvalidMapping = errors.New("core: invalid mapping")

// ErrStructureMismatch marks a re-bind rejection: the tree's shape, levels,
// sibling bindings or operators differ from the compiled structure. Every
// such error also matches ErrInvalidMapping; the finer mark lets callers on
// the re-bind fast path (WithTiling, EvaluateDelta, EvaluateBatch) tell a
// wrong structure — worth recompiling for — from an invalid tiling of the
// right structure, which a recompile would reject identically.
var ErrStructureMismatch = errors.New("core: structure mismatch")

// structureError adds the ErrStructureMismatch mark to a re-bind error
// without altering its message or its ErrInvalidMapping mark.
type structureError struct{ err error }

func (e *structureError) Error() string        { return e.err.Error() }
func (e *structureError) Is(target error) bool { return target == ErrStructureMismatch }
func (e *structureError) Unwrap() error        { return e.err }

// markedError tags a formatted message with a sentinel for errors.Is
// without altering the message text.
type markedError struct {
	msg  string
	mark error
}

func (e *markedError) Error() string        { return e.msg }
func (e *markedError) Is(target error) bool { return target == e.mark }

func infeasiblef(format string, args ...any) error {
	return &markedError{msg: fmt.Sprintf(format, args...), mark: ErrInfeasible}
}

func invalidf(format string, args ...any) error {
	return &markedError{msg: fmt.Sprintf(format, args...), mark: ErrInvalidMapping}
}

// coverageError is the coverage rule's violation, an ErrInvalidMapping
// that formats its message on demand: a search pre-screen rejects far more
// points on coverage than it ever prints, and formatting each one would
// cost more than checking it.
type coverageError struct {
	op, dim   string
	cov, want int
}

func (e *coverageError) Error() string {
	return fmt.Sprintf("core: operator %q dim %q tiled to %d, want %d", e.op, e.dim, e.cov, e.want)
}

func (e *coverageError) Is(target error) bool { return target == ErrInvalidMapping }

// LevelDM is the data movement recorded at one memory level, in words,
// using the paper's Fig 10d taxonomy: fill is data loaded into this level
// from the level above, read is data sent from this level down to the level
// below, and update is data written back into this level from below.
type LevelDM struct {
	Fill   float64
	Read   float64
	Update float64
}

// Total is fill+read+update: the access count the energy model charges.
func (l LevelDM) Total() float64 { return l.Fill + l.Read + l.Update }

// Result is the outcome of evaluating one fusion dataflow on one
// architecture: the performance-critical metrics of Sec 5 plus the derived
// latency, energy, utilization and bandwidth figures of Sec 7.
type Result struct {
	// Cycles is the modeled execution latency.
	Cycles float64
	// ComputeCycles is the latency under infinite memory bandwidth — the
	// denominator of the Sec 7.5 slow-down metric.
	ComputeCycles float64

	// DM is per-level data movement, indexed like spec.Levels.
	DM []LevelDM

	// TensorDM breaks DM down per tensor, for analysis and debugging.
	TensorDM map[string][]LevelDM

	// MACs and VectorOps are the workload's inherent op counts.
	MACs      float64
	VectorOps float64

	// Energy is the per-level/compute energy breakdown.
	Energy energy.Breakdown

	// PEsUsed is the Sec 5.2 NumPE of the root; TotalPEs the chip total.
	PEsUsed  int
	TotalPEs int

	// UnitUsage[l] is how many level-l instances the dataflow occupies;
	// Utilization is the sub-core (level 1) occupancy ratio of Fig 11d.
	UnitUsage   []int
	Utilization float64

	// FootprintWords is the per-instance buffer occupancy per level.
	FootprintWords []int64

	// SlowDown[l] is max(level-l access latency / compute latency, 1),
	// the Sec 7.5 metric; BandwidthReqGBs[l] is the minimum aggregate
	// bandwidth at level l for slow-down 1 (Fig 14).
	SlowDown        []float64
	BandwidthReqGBs []float64
}

// DRAMTraffic is the off-chip data movement in words (reads + writes at the
// DRAM level), the Fig 10b metric.
func (r *Result) DRAMTraffic() float64 {
	l := r.DM[len(r.DM)-1]
	return l.Read + l.Update
}

// OnChipTraffic sums data movement at all on-chip levels above the
// registers (the Fig 10c metric).
func (r *Result) OnChipTraffic() float64 {
	var v float64
	for i := 1; i < len(r.DM)-1; i++ {
		v += r.DM[i].Total()
	}
	return v
}

// LevelTraffic is the total data movement at one level.
func (r *Result) LevelTraffic(level int) float64 { return r.DM[level].Total() }

// EnergyPJ is the total modeled energy.
func (r *Result) EnergyPJ() float64 { return r.Energy.TotalPJ() }

// CapacityError reports a buffer level whose per-instance footprint exceeds
// its capacity — the OOM condition of Table 7 and Table 8.
type CapacityError struct {
	Level     int
	LevelName string
	NeedWords int64
	HaveWords int64
}

// Error implements error.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("core: level %d (%s) over capacity: need %d words, have %d",
		e.Level, e.LevelName, e.NeedWords, e.HaveWords)
}

// Is matches ErrInfeasible: a capacity violation is one of the resource
// limits that make a design point infeasible.
func (e *CapacityError) Is(target error) bool { return target == ErrInfeasible }

// IsOOM reports whether the error is a buffer-capacity violation.
func IsOOM(err error) bool {
	_, ok := err.(*CapacityError)
	return ok
}

// Options tunes evaluation.
type Options struct {
	// SkipCapacityCheck evaluates even when buffers overflow (Table 7's
	// "no memory limit" scenario).
	SkipCapacityCheck bool
	// SkipPECheck evaluates even when the spatial mapping exceeds the
	// PE array.
	SkipPECheck bool
	// DisableRetention turns off wrap-around retention, reverting to the
	// paper's conservative assumption that "data replacement happens for
	// every outer iteration" — the source of its small-tile
	// overestimation (Fig 8d discussion). Used by the ablation study.
	DisableRetention bool
}

// evaluator carries the per-evaluation state. All mutable analysis state
// lives in the scratch arena, never on the shared Program or its compiled
// tree, which is what makes concurrent Evaluate calls on one Program safe.
type evaluator struct {
	ctx  context.Context
	p    *Program
	t    *tree
	opts Options
	s    *Scratch
	// delta, when non-nil, records per-(node,group) volumes as the full
	// pass computes them, so a later EvaluateDelta can replay unaffected
	// nodes bit-identically instead of recomputing them.
	delta *DeltaState
	// Incremental masks, set only on the delta path (all nil on a full
	// evaluation): affected[i] false lets accountDataMovement replay node
	// i's cached volumes; fpNeed[i] false keeps node i's footprint row;
	// vDirty/vDirtyUp restrict the tiling rules to items whose inputs
	// changed. Clean items cannot fail if the snapshot tiling passed, so
	// the first reported error is identical to a full run's.
	affected []bool
	fpNeed   []bool
	vDirty   []bool
	vDirtyUp []bool
}

// Evaluate runs TileFlow's tree-based analysis for the dataflow rooted at
// root over graph g on architecture spec, returning the modeled metrics.
// It is the one-shot composition of Compile and Program.Evaluate; callers
// evaluating many tilings of one tree structure should Compile once and
// re-evaluate through the Program.
func Evaluate(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) (*Result, error) {
	return EvaluateContext(context.Background(), root, g, spec, opts)
}

// EvaluateContext is Evaluate with cancellation: the analysis aborts with
// ctx.Err() at phase boundaries and between per-node data-movement passes,
// so a service can bound the latency of one evaluation.
func EvaluateContext(ctx context.Context, root *Node, g *workload.Graph, spec *arch.Spec, opts Options) (*Result, error) {
	p, err := Compile(root, g, spec)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(ctx, opts)
}

// run executes the tiling-dependent analysis phases — the Evaluate half of
// the Compile → Evaluate pipeline — on the evaluator's bound tree. The
// returned Result aliases the scratch arena.
func (e *evaluator) run() (*Result, error) {
	t, spec, s := e.t, e.p.spec, e.s
	s.reset()
	x := e.rules()
	defer x.unbind()
	if err := x.check(phaseTiling, nil); err != nil {
		return nil, err
	}
	if err := e.accountDataMovement(); err != nil {
		return nil, err
	}

	res := &s.res
	*res = Result{
		DM:        s.dm,
		TensorDM:  s.tensorDM,
		MACs:      e.p.macs,
		VectorOps: e.p.vops,
		PEsUsed:   NumPE(t.root),
		TotalPEs:  spec.TotalPEs(),
	}

	res.UnitUsage = t.unitUsageInto(s.unitBuf, spec.NumLevels())
	if inst := spec.Instances(1); inst > 0 {
		u := res.UnitUsage[1]
		if u > inst {
			u = inst
		}
		res.Utilization = float64(u) / float64(inst)
	}
	x.pes, x.units = res.PEsUsed, res.UnitUsage
	if err := x.check(phaseResources, nil); err != nil {
		return nil, err
	}

	res.FootprintWords = t.footprintInto(s.fpRows, spec.NumLevels(), e.p.confRel, e.p.density, e.fpNeed)
	x.footprint = res.FootprintWords
	if err := x.check(phaseCapacity, nil); err != nil {
		return nil, err
	}

	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	res.Cycles = e.latency(0, false)
	res.ComputeCycles = e.latency(0, true)

	// Energy: per-level accesses plus register operand traffic for the
	// compute itself (two operand reads per op).
	accesses := s.accesses
	for i := range s.dm {
		accesses[i] = s.dm[i].Total()
	}
	accesses[0] += 2 * (res.MACs + res.VectorOps)
	res.Energy = e.p.etab.EstimateInto(s.perLevel, accesses, res.MACs, res.VectorOps)

	// Slow-down and bandwidth requirement per level (Sec 7.5, Fig 14).
	res.SlowDown = s.slow
	res.BandwidthReqGBs = s.bwreq
	for l := 1; l < spec.NumLevels(); l++ {
		traffic := s.dm[l].Total()
		accessCycles := 0.0
		if wpc := spec.WordsPerCycle(l); wpc > 0 {
			accessCycles = traffic / wpc
		}
		sd := 1.0
		if res.ComputeCycles > 0 && accessCycles/res.ComputeCycles > 1 {
			sd = accessCycles / res.ComputeCycles
		}
		res.SlowDown[l] = sd
		res.BandwidthReqGBs[l] = 0
		if res.ComputeCycles > 0 {
			res.BandwidthReqGBs[l] = traffic * float64(spec.WordBytes) * spec.FreqGHz / res.ComputeCycles
		}
	}
	return res, nil
}

// densityOf snapshots the graph's per-tensor densities for the footprint
// computation (only non-dense entries matter).
func densityOf(g *workload.Graph) map[string]float64 {
	out := map[string]float64{}
	for name, t := range g.Tensors {
		if d := t.EffDensity(); d < 1 {
			out[name] = d
		}
	}
	return out
}

// macOps and vectorOps count effective operations: on gating hardware a
// sparse operand skips its zero iterations, so counts scale with the
// product of read densities (1.0 when fully dense).
func macOps(g *workload.Graph) float64 {
	var n float64
	for _, op := range g.Ops {
		if op.Kind == workload.KindMAC {
			n += float64(op.OpCount()) * g.OpDensity(op)
		}
	}
	return n
}

func vectorOps(g *workload.Graph) float64 {
	var n float64
	for _, op := range g.Ops {
		if op.Kind.Vector() {
			n += float64(op.OpCount()) * g.OpDensity(op)
		}
	}
	return n
}

// rules binds the legality rules' input to the evaluator's tree in the
// scratch arena, where the predicates can read it without an allocation.
// The caller unbinds it when done.
func (e *evaluator) rules() *ruleInput {
	x := &e.s.rules
	*x = ruleInput{t: e.t, g: e.p.g, spec: e.p.spec, opts: e.opts, dirty: e.vDirty, dirtyUp: e.vDirtyUp}
	return x
}

// accountDataMovement runs the inter-tile analysis of Sec 5.1.2: for every
// node it computes the total fills and updates crossing the node's upper
// boundary, honoring confinement (intermediates never cross their LCA) and
// Seq eviction, and attributes the traffic to the memory levels the data
// passes through.
func (e *evaluator) accountDataMovement() error {
	t := e.t
	for i := range t.nodeSet {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		if e.affected != nil && !e.affected[i] {
			e.replayNodeDM(i)
			continue
		}
		if err := e.accountNodeDM(i); err != nil {
			return err
		}
	}
	return nil
}

// accountNodeDM computes and attributes the data movement of one node's
// upper boundary. The delta path calls it for affected nodes only and
// replays cached per-group volumes for the rest.
func (e *evaluator) accountNodeDM(i int) error {
	t := e.t
	pLevel := e.p.pLevel[i]
	if pLevel < 0 {
		return nil // same buffer or root at DRAM: no boundary to cross
	}
	n := t.nodeSet[i]
	var fills, updates float64
	for gi := range t.st.groups[i] {
		grp := &t.st.groups[i][gi]
		if e.p.confRel[i][gi] != confNone {
			continue // confined at or below n: never crosses up
		}
		tf, tu := e.groupDM(i, gi, grp)
		fills += tf
		updates += tu
		e.attributeTensor(grp, n.Level, pLevel, tf, tu)
		if d := e.delta; d != nil {
			d.tf[i][gi], d.tu[i][gi] = tf, tu
		}
	}
	if d := e.delta; d != nil {
		d.fills[i], d.updates[i] = fills, updates
	}
	e.attributeNode(i, fills, updates)
	return nil
}

// replayNodeDM re-attributes node i's cached per-group volumes without
// recomputing them: when neither i's subtree nor its ancestors changed
// loops, every input to groupDM is unchanged, so the cached float64s are
// the exact values a full pass would produce. Attribution runs in the
// same (node, group) order as accountNodeDM, keeping every floating-point
// accumulation bit-identical to the cold route.
func (e *evaluator) replayNodeDM(i int) {
	t, d := e.t, e.delta
	pLevel := e.p.pLevel[i]
	if pLevel < 0 {
		return
	}
	n := t.nodeSet[i]
	for gi := range t.st.groups[i] {
		if e.p.confRel[i][gi] != confNone {
			continue
		}
		e.attributeTensor(&t.st.groups[i][gi], n.Level, pLevel, d.tf[i][gi], d.tu[i][gi])
	}
	e.attributeNode(i, d.fills[i], d.updates[i])
}

// attributeNode adds node i's boundary totals to its own counters and to
// the memory levels: the data enters the node's level, and — unless the
// architecture grants the pair direct access (Sec 5.1.2) — passes through
// every level between it and the parent level. accountNodeDM and
// replayNodeDM both end here, so the two routes accumulate in one order.
func (e *evaluator) attributeNode(i int, fills, updates float64) {
	s, level, pLevel := e.s, e.t.nodeSet[i].Level, e.p.pLevel[i]
	s.nodeFill[i] += fills
	s.nodeUpdate[i] += updates
	s.dm[level].Fill += fills
	s.dm[pLevel].Read += fills
	s.dm[pLevel].Update += updates
	if !e.p.spec.HasDirectAccess(level, pLevel) {
		for l := level + 1; l < pLevel; l++ {
			s.dm[l].Fill += fills
			s.dm[l].Read += fills
			s.dm[l].Update += updates
		}
	}
}

// groupDM computes one tensor group's fill and update volumes crossing
// node i's upper boundary, the per-group body of Sec 5.1.2.
func (e *evaluator) groupDM(i, gi int, grp *tensorGroup) (tf, tu float64) {
	t := e.t
	if len(grp.reads) > 0 {
		per := e.fillPerExec(i, grp.reads, grp.evicts)
		if grp.evicts {
			// Seq eviction forfeits hierarchical reuse: every
			// relevant re-execution refetches.
			tf = per * t.invocationsMask(i, nil)
		} else {
			tf = per * t.invocationsMask(i, grp.readMask)
		}
	}
	if len(grp.writes) > 0 {
		per := e.fillPerExec(i, grp.writes, grp.evicts)
		tu = per * t.invocationsMask(i, grp.writeMask)
		// Read-modify-write: if the same output slice drains
		// more than once (a reduction split above this node),
		// each extra drain needs a prior refill of partials.
		w := grp.writes[0]
		distinct := float64(t.coveredVolumeI(i, w.leafID, w.iix)) *
			t.invocationsMask(i, w.mask)
		if rmw := tu - distinct; rmw > 0 {
			tf += rmw
		}
	}
	// Sparse tensors travel in compressed form (Sec 7.7
	// extension): traffic scales with density.
	if d, sparse := e.p.density[grp.tensor]; sparse {
		tf *= d
		tu *= d
	}
	return tf, tu
}

// fillPerExec computes the words of the tensor group that cross node n's
// upper boundary inward during one execution of n. Multiple accesses to
// the same tensor share the staged slice, so the maximum over accesses is
// taken. Under Seq eviction the slice is refetched on every time step.
func (e *evaluator) fillPerExec(n int, refs []accessRef, evicted bool) float64 {
	var best float64
	for ri := range refs {
		r := &refs[ri]
		var v float64
		if evicted {
			v = float64(e.t.nodeSet[n].TemporalTrips()) * float64(e.t.sliceVolumeI(n, r.leafID, r.iix))
		} else {
			v = e.perExecDMI(n, r.leafID, r.iix, e.retainI(n, r))
		}
		if v > best {
			best = v
		}
	}
	return best
}

// retainI is the wrap-around retention predicate: a tensor's swept
// footprint is retained when it occupies at most half of the node's
// per-instance buffer (disabled by Options.DisableRetention). The
// compile-time maxWords bound short-circuits the covered-volume walk when
// even the worst-case sweep fits; the exact walk only runs when the bound
// exceeds the budget.
func (e *evaluator) retainI(n int, r *accessRef) bool {
	if e.opts.DisableRetention {
		return false
	}
	cap := e.p.spec.CapacityWords(e.t.nodeSet[n].Level)
	if cap == math.MaxInt64 {
		return true
	}
	if r.maxWords <= cap/2 {
		return true
	}
	return e.t.coveredVolumePerInstanceI(n, r.leafID, r.iix) <= cap/2
}

// attributeTensor records one tensor's share of the traffic crossing a
// node boundary between childLevel and parentLevel. Attributed tensors
// carry a compile-time id into the arena's flat row block, so the steady
// state indexes a slice instead of hashing the tensor name; the map path
// remains as a defensive fallback for unattributed groups.
func (e *evaluator) attributeTensor(grp *tensorGroup, childLevel, parentLevel int, fills, updates float64) {
	var dm []LevelDM
	if tid := grp.tensorID; tid >= 0 && tid < e.s.nTensors {
		L := len(e.s.dm)
		dm = e.s.tensorRows[tid*L : tid*L+L]
	} else {
		var ok bool
		dm, ok = e.s.tensorDM[grp.tensor]
		if !ok {
			dm = make([]LevelDM, len(e.s.dm))
			e.s.tensorDM[grp.tensor] = dm
		}
	}
	dm[childLevel].Fill += fills
	dm[parentLevel].Read += fills
	dm[parentLevel].Update += updates
	if !e.p.spec.HasDirectAccess(childLevel, parentLevel) {
		for l := childLevel + 1; l < parentLevel; l++ {
			dm[l].Fill += fills
			dm[l].Read += fills
			dm[l].Update += updates
		}
	}
}

// temporalRepeats counts how many times child c executes per single
// execution of parent n: the product of n's temporal-loop extents over
// dimensions relevant to c's subtree.
func (e *evaluator) temporalRepeats(n, c int) float64 {
	rel := e.t.st.subtreeDims(c)
	ld := e.t.ldim[n]
	r := 1.0
	for li, l := range e.t.nodeSet[n].Loops {
		if l.Kind == Temporal && ld[li] >= 0 && rel[ld[li]] {
			r *= float64(l.Extent)
		}
	}
	return r
}

// effBandwidth is the words/cycle available for transfers across node n's
// upper boundary: the narrowest level bandwidth on the path, shared among
// the concurrent sibling contexts created by ancestor spatial loops and
// Para/Pipe bindings.
func (e *evaluator) effBandwidth(n int) float64 {
	pLevel := e.p.pLevel[n]
	if pLevel < 0 {
		return math.Inf(1)
	}
	bw := math.Inf(1)
	for l := e.t.nodeSet[n].Level + 1; l <= pLevel; l++ {
		if w := e.p.spec.WordsPerCycle(l); w < bw {
			bw = w
		}
	}
	// Ancestor spatial loops replicate this node across concurrent
	// instances that share the level's aggregate bandwidth. Para/Pipe
	// siblings are NOT charged against each other, matching the paper's
	// Sec 5.3 formula (pipelined stages rarely contend: the vector
	// stages consume little bandwidth).
	share := 1.0
	for a := e.t.st.parent[n]; a >= 0; a = e.t.st.parent[a] {
		share *= float64(e.t.nodeSet[a].SpatialProduct())
	}
	return bw / share
}

// latency implements the Sec 5.3 recursion: a tile's latency is the maximum
// of its (double-buffered) load phase, its children, and its store phase.
// Children are summed under Seq/Shar and maxed under Para/Pipe, repeated by
// the node's temporal trip counts. With computeOnly, bandwidth is infinite.
func (e *evaluator) latency(n int, computeOnly bool) float64 {
	nd := e.t.nodeSet[n]
	var inner float64
	if nd.IsLeaf() {
		inner = float64(nd.TemporalTrips()) * e.leafIterCost(nd)
		// Gating hardware skips zero iterations of sparse operands.
		inner *= e.p.opDensity[n]
	} else {
		for _, c := range e.t.st.children[n] {
			lc := e.latency(c, computeOnly) * e.temporalRepeats(n, c)
			if nd.Binding.Spatial() {
				if lc > inner {
					inner = lc
				}
			} else {
				inner += lc
			}
		}
	}
	if computeOnly {
		return inner
	}
	inv := e.t.invocationsMask(n, nil)
	bw := e.effBandwidth(n)
	load, store := 0.0, 0.0
	if !math.IsInf(bw, 1) && inv > 0 {
		load = e.s.nodeFill[n] / inv / bw
		store = e.s.nodeUpdate[n] / inv / bw
	}
	return math.Max(load, math.Max(inner, store))
}

// leafIterCost is the cycles one temporal iteration of a leaf takes: MAC
// leaves run one spatial lane per PE per cycle (a leaf's spatial extent may
// span sub-cores, as with convolution channel mappings, but never the
// chip); vector leaves run on the sub-core's vector unit with its lane
// count.
func (e *evaluator) leafIterCost(n *Node) float64 {
	sp := float64(n.SpatialProduct())
	if n.Op.Kind.Vector() {
		lanes := float64(e.p.spec.VectorLanesPerSubcore)
		if lanes < 1 {
			lanes = 1
		}
		return math.Ceil(sp / lanes)
	}
	total := float64(e.p.spec.TotalPEs() * e.p.spec.MACsPerPE)
	return math.Ceil(sp / total)
}
