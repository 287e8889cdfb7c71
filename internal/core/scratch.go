package core

import "sync"

// Scratch is a reusable per-evaluation arena: every buffer the tiling-
// dependent analysis needs, sized once from the compiled Program's node
// count, level count and access shapes. A steady-state evaluation through
// EvaluateInto touches only these buffers and performs zero heap
// allocations (pinned by an AllocsPerRun guard in the tests).
//
// A Scratch belongs to one Program family (the Program it was created from
// plus all its WithTiling re-binds, which share sizes) and to one goroutine
// at a time. Results returned by EvaluateInto alias the arena and are valid
// only until its next use; Evaluate clones them out.
type Scratch struct {
	// nodeFill/nodeUpdate are total words crossing each node's upper
	// boundary over the whole execution, indexed by pre-order node id.
	nodeFill   []float64
	nodeUpdate []float64
	dm         []LevelDM
	// tensorDM has its key set fixed at creation: exactly the tensors the
	// structure attributes traffic for (a tiling-independent set). Each
	// row aliases a block of tensorRows, the flat arena the evaluator
	// indexes by compile-time tensor id; the map exists for Result
	// consumers and the defensive unattributed fallback.
	tensorDM   map[string][]LevelDM
	tensorRows []LevelDM
	nTensors   int

	// Per-access working vectors for the Sec 5.1.1 set-difference formula.
	// tldims carries the interned dim id of each tloops entry.
	exts    []int64
	tloops  []Loop
	tldims  []int32
	strides []int64

	// Bottom-up row arenas: one row of numLevels entries per node.
	unitBuf []int
	fpRows  []int64

	// Result backing.
	accesses []float64
	slow     []float64
	bwreq    []float64
	perLevel []float64
	res      Result

	// view is a reusable rebind view for the batch path: one tree view is
	// re-filled per candidate instead of allocated.
	view tree

	// rules is the legality rules' input, bound per evaluation.
	rules ruleInput
}

// NewScratch allocates a scratch arena sized for the Program. One arena
// serves any tiling re-bind of the same structure.
func (p *Program) NewScratch() *Scratch {
	n := len(p.t.nodeSet)
	levels := p.spec.NumLevels()
	s := &Scratch{
		nodeFill:   make([]float64, n),
		nodeUpdate: make([]float64, n),
		dm:         make([]LevelDM, levels),
		tensorDM:   make(map[string][]LevelDM, len(p.attributed)),
		tensorRows: make([]LevelDM, len(p.attributed)*levels),
		nTensors:   len(p.attributed),
		exts:       make([]int64, 0, p.maxIndexDims),
		tloops:     make([]Loop, 0, 16),
		tldims:     make([]int32, 0, 16),
		strides:    make([]int64, 0, 16),
		unitBuf:    make([]int, n*levels),
		fpRows:     make([]int64, n*levels),
		accesses:   make([]float64, levels),
		slow:       make([]float64, levels),
		bwreq:      make([]float64, levels),
		perLevel:   make([]float64, levels),
	}
	for i, tensor := range p.attributed {
		s.tensorDM[tensor] = s.tensorRows[i*levels : (i+1)*levels : (i+1)*levels]
	}
	return s
}

// reset zeroes the accumulating buffers. Buffers that every evaluation
// fully overwrites (row arenas, accesses, result backing) are left as-is.
func (s *Scratch) reset() {
	for i := range s.nodeFill {
		s.nodeFill[i] = 0
	}
	for i := range s.nodeUpdate {
		s.nodeUpdate[i] = 0
	}
	for i := range s.dm {
		s.dm[i] = LevelDM{}
	}
	for i := range s.tensorRows {
		s.tensorRows[i] = LevelDM{}
	}
	if len(s.tensorDM) > s.nTensors {
		// Defensive rows inserted for unattributed groups live only in
		// the map; zero them too (re-zeroing aliased rows is harmless).
		for _, row := range s.tensorDM {
			for i := range row {
				row[i] = LevelDM{}
			}
		}
	}
	// The slow-down/bandwidth loops write levels 1..L-1 only; level 0
	// stays zero as in a fresh allocation.
	if len(s.slow) > 0 {
		s.slow[0], s.bwreq[0] = 0, 0
	}
}

// scratchPool shares pooled arenas across a Program and its WithTiling
// copies. It lives behind a pointer so Program stays copyable.
type scratchPool struct {
	pool sync.Pool
}

func (p *Program) getScratch() *Scratch {
	if s, ok := p.pool.pool.Get().(*Scratch); ok {
		return s
	}
	return p.NewScratch()
}

func (p *Program) putScratch(s *Scratch) { p.pool.pool.Put(s) }

// cloneResult deep-copies a Result out of the arena it aliases.
func cloneResult(r *Result) *Result {
	out := *r
	out.DM = append([]LevelDM(nil), r.DM...)
	out.TensorDM = make(map[string][]LevelDM, len(r.TensorDM))
	for k, v := range r.TensorDM {
		cp := make([]LevelDM, len(v))
		copy(cp, v)
		out.TensorDM[k] = cp
	}
	out.UnitUsage = append([]int(nil), r.UnitUsage...)
	out.FootprintWords = append([]int64(nil), r.FootprintWords...)
	out.SlowDown = append([]float64(nil), r.SlowDown...)
	out.BandwidthReqGBs = append([]float64(nil), r.BandwidthReqGBs...)
	out.Energy.PerLevelPJ = append([]float64(nil), r.Energy.PerLevelPJ...)
	return &out
}
