// Package mapper implements TileFlow's design-space exploration (Sec 6): a
// Monte Carlo Tree Search over tiling factors, and a genetic algorithm over
// compute ordering and resource binding whose individuals are tuned by the
// MCTS — the combined workflow of Fig 7a.
package mapper

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
)

// Evaluation is one evaluated mapping: a concrete factor assignment and its
// modeled performance.
type Evaluation struct {
	Factors map[string]int
	Cycles  float64
	Result  *core.Result
}

// TileSearch tunes the tiling factors of one dataflow template with MCTS
// (Sec 6: "for each step, it selects one loop and assigns it a tiling
// factor within its trip counts ... the results are feedbacks to MCTS to
// update upper confidence bounds").
type TileSearch struct {
	Dataflow dataflows.Dataflow
	Spec     *arch.Spec
	Opts     core.Options
	// Rounds is the number of MCTS iterations (each evaluates one
	// complete mapping). The paper samples ~200 tiling choices per round.
	Rounds int
	// Seed makes the search deterministic.
	Seed int64
	// Explore is the UCB exploration constant (default √2).
	Explore float64
	// Domains, when set, restricts each factor's candidate list to the
	// given values before the search starts — the narrowed per-factor
	// domains of the search-space analyzer (spaceck.Report.AllowedMap),
	// passed as plain data so the mapper never depends on the analyzer.
	// Keys absent from the map keep their full divisor list; a key mapped
	// to an empty (or disjoint) set proves the space empty and the search
	// returns immediately. Domains must be sound — only values no
	// feasible point uses may be missing — or the search will skip valid
	// mappings.
	Domains map[string][]int

	// prog is the compiled program of the template's structure, compiled
	// from the first candidate that compiles and reused across rounds:
	// every later candidate pays only a tiling re-bind plus the evaluate
	// half of the pipeline instead of a full compile. A candidate whose
	// tree shape differs from prog's is compiled afresh and replaces it.
	// delta is the one incremental re-evaluation state all those rounds run
	// through — successive MCTS candidates differ by a handful of factors,
	// so most of the tree's analysis is replayed from the cache instead of
	// recomputed.
	prog  *core.Program
	delta *core.DeltaState

	// refill is the candidate tree the search rewrites in place when the
	// template is a dataflows.Refiller, instead of building a new tree per
	// round. It is the first tree built once prog exists, so never the tree
	// prog was compiled from: a Program keeps its tree's nodes. The search
	// drops it (and refiller) if a re-bind reports a structure mismatch.
	refill   *core.Node
	refiller dataflows.Refiller

	// Reusable per-round buffers (one RunContext at a time per TileSearch,
	// which prog/delta already require).
	selBuf  []int
	pathBuf []*mctsNode
	assign  []int
	factors map[string]int
}

// mctsNode is one node of the search tree: a prefix of factor decisions.
// children is indexed by choice position and allocated on first use (leaf
// nodes never allocate one); a nil entry is an unexpanded choice.
type mctsNode struct {
	visits   int
	total    float64 // sum of rewards
	children []*mctsNode
}

func newMctsNode() *mctsNode { return &mctsNode{} }

// ensureChildren sizes the node's child slice for its choice list.
func (n *mctsNode) ensureChildren(k int) {
	if n.children == nil {
		n.children = make([]*mctsNode, k)
	}
}

// Run searches for the factor assignment minimizing cycles. It returns the
// best evaluation found and the best-so-far cycle count after every round
// (the Fig 9a convergence trace). When no valid mapping exists it returns
// nil with a nil error.
func (s *TileSearch) Run() (*Evaluation, []float64) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the search stops at the next round
// boundary once ctx is done and returns the best evaluation found so far
// (MCTS is an anytime algorithm), so callers can budget wall time.
func (s *TileSearch) RunContext(ctx context.Context) (*Evaluation, []float64) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs := s.Dataflow.Factors()
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 200
	}
	explore := s.Explore
	if explore == 0 {
		explore = math.Sqrt2
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(s.Seed)
	s.refiller, _ = s.Dataflow.(dataflows.Refiller)

	// Choice lists per factor, in a fixed decision order, narrowed to the
	// analyzer's domains when the caller provides them: MCTS never expands
	// a pruned value, so the whole subtree under it is skipped rather than
	// sampled and rejected.
	choices := make([][]int, len(specs))
	for i, f := range specs {
		choices[i] = f.Choices()
		if dom, ok := s.Domains[f.Key]; ok {
			choices[i] = intersectChoices(choices[i], dom)
			if len(choices[i]) == 0 {
				// The analyzer proved every value of this factor infeasible:
				// the space has no valid point, matching "no valid mapping"
				// (nil best, empty trace).
				return nil, nil
			}
		}
	}

	root := newMctsNode()
	var best *Evaluation
	trace := make([]float64, 0, rounds)
	// worst tracks the largest finite cycle count seen, normalizing
	// rewards into (0, 1].
	worst := 0.0

	// Seed with the template's default factors so the search never
	// returns something worse than the untuned mapping.
	if ev := s.evaluate(ctx, s.Dataflow.DefaultFactors()); ev != nil {
		ev.Result = ev.Result.Clone() // detach from the delta arena
		best = ev
		worst = ev.Cycles
	}

	if s.factors == nil {
		s.factors = make(map[string]int, len(specs))
	}
	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			break
		}
		// Selection + expansion.
		node := root
		path := append(s.pathBuf[:0], root)
		assign := s.assign[:0]
		depth := 0
		for depth < len(specs) {
			ci := s.selectChild(node, choices[depth], explore, rng)
			child := node.children[ci]
			if child == nil {
				child = newMctsNode()
				node.children[ci] = child
				assign = append(assign, ci)
				depth++
				path = append(path, child)
				node = child
				break // expansion: roll out from here
			}
			assign = append(assign, ci)
			depth++
			path = append(path, child)
			node = child
		}
		// Rollout: random completion.
		for d := depth; d < len(specs); d++ {
			assign = append(assign, rng.Intn(len(choices[d])))
		}
		s.pathBuf, s.assign = path, assign
		factors := s.factors
		clear(factors)
		for i, f := range specs {
			factors[f.Key] = choices[i][assign[i]]
		}
		ev := s.evaluate(ctx, factors)
		reward := 0.0
		if ev != nil {
			if ev.Cycles > worst {
				worst = ev.Cycles
			}
			reward = 1.0 / (1.0 + ev.Cycles/math.Max(1, worst))
			if best == nil || ev.Cycles < best.Cycles {
				ev.Result = ev.Result.Clone() // detach from the delta arena
				// Detach the factor map too: the rollout buffer is reused
				// next round.
				ev.Factors = make(map[string]int, len(factors))
				for k, v := range factors {
					ev.Factors[k] = v
				}
				best = ev
			}
		}
		for _, n := range path {
			n.visits++
			n.total += reward
		}
		if best != nil {
			trace = append(trace, best.Cycles)
		} else {
			trace = append(trace, math.Inf(1))
		}
	}
	return best, trace
}

// rngPool recycles the searches' generators: a new source allocates about
// 5 KB, and Seed resets a used one to exactly the stream a new source with
// that seed yields.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// selectChild applies UCB1 over the expanded children, preferring an
// unexpanded choice when one exists.
func (s *TileSearch) selectChild(n *mctsNode, choices []int, explore float64, rng *rand.Rand) int {
	n.ensureChildren(len(choices))
	unexpanded := s.selBuf[:0]
	for i := range choices {
		if n.children[i] == nil {
			unexpanded = append(unexpanded, i)
		}
	}
	s.selBuf = unexpanded
	if len(unexpanded) > 0 {
		return unexpanded[rng.Intn(len(unexpanded))]
	}
	bestIdx, bestScore := 0, math.Inf(-1)
	// Ascending index order (what the map form's sorted iteration gave),
	// for reproducibility.
	for i, c := range n.children {
		if c == nil {
			continue
		}
		score := c.total/float64(c.visits) +
			explore*math.Sqrt(math.Log(float64(n.visits+1))/float64(c.visits))
		if score > bestScore {
			bestIdx, bestScore = i, score
		}
	}
	return bestIdx
}

// evaluate builds and evaluates one factor assignment. The returned
// Evaluation's Result aliases the search's delta arena and is valid only
// until the next rollout; RunContext clones it when it becomes the
// best-so-far.
func (s *TileSearch) evaluate(ctx context.Context, factors map[string]int) *Evaluation {
	root, err := s.build(factors)
	if err != nil {
		return nil
	}
	res, err := s.evaluateTree(ctx, root)
	if err != nil {
		return nil
	}
	return &Evaluation{Factors: factors, Cycles: res.Cycles, Result: res}
}

// build returns the candidate tree for factors: the refill tree rewritten
// in place once the search owns one, otherwise a new tree from Build.
func (s *TileSearch) build(factors map[string]int) (*core.Node, error) {
	if s.refill != nil {
		if err := s.refiller.Refill(s.refill, factors); err != nil {
			return nil, err
		}
		return s.refill, nil
	}
	root, err := s.Dataflow.Build(factors)
	if err == nil && s.refiller != nil && s.prog != nil {
		s.refill = root
	}
	return root, err
}

// evaluateTree evaluates one candidate tree. The template is compiled once
// and every further candidate re-binds into the incremental evaluator,
// paying only for the subtrees whose loop nests changed since the previous
// rollout; a candidate of another structure is compiled afresh.
func (s *TileSearch) evaluateTree(ctx context.Context, root *core.Node) (*core.Result, error) {
	if s.prog == nil {
		p, err := core.Compile(root, s.Dataflow.Graph(), s.Spec)
		if err != nil {
			return nil, err
		}
		s.prog = p
		s.delta = p.NewDelta(s.Opts)
	}
	res, err := s.prog.EvaluateDelta(ctx, s.delta, root, s.Opts)
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, core.ErrStructureMismatch) {
		// A genuinely invalid tiling of the compiled structure: a fresh
		// compile would reproduce the identical validation error (the delta
		// pass is pinned to the full pass's first error), so return it
		// without paying for one.
		return nil, err
	}
	// The re-bind rejected this tree's shape: the template's structure
	// depends on its factors. A fresh compile adopts the new structure and
	// keeps this tree's nodes, so the search stops refilling.
	s.refill, s.refiller = nil, nil
	p, cerr := core.Compile(root, s.Dataflow.Graph(), s.Spec)
	if cerr != nil {
		return nil, cerr
	}
	s.prog = p
	s.delta = p.NewDelta(s.Opts)
	return s.prog.EvaluateDelta(ctx, s.delta, root, s.Opts)
}

// intersectChoices keeps the values of choices present in dom, preserving
// the choice order so the narrowed search stays deterministic.
func intersectChoices(choices, dom []int) []int {
	set := make(map[int]bool, len(dom))
	for _, v := range dom {
		set[v] = true
	}
	out := make([]int, 0, len(choices))
	for _, v := range choices {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// Tune is the convenience entry point the experiments use: it MCTS-tunes a
// dataflow's factors and returns the best evaluation. The search evaluates
// the default factors first, so the result is never worse than the untuned
// mapping; nil means not even the defaults evaluate.
func Tune(df dataflows.Dataflow, spec *arch.Spec, opts core.Options, rounds int, seed int64) *Evaluation {
	return TuneContext(context.Background(), df, spec, opts, rounds, seed)
}

// TuneContext is Tune with cancellation, returning the best evaluation
// found before ctx expired (or nil when nothing valid was seen).
func TuneContext(ctx context.Context, df dataflows.Dataflow, spec *arch.Spec, opts core.Options, rounds int, seed int64) *Evaluation {
	s := &TileSearch{Dataflow: df, Spec: spec, Opts: opts, Rounds: rounds, Seed: seed}
	best, _ := s.RunContext(ctx)
	return best
}
