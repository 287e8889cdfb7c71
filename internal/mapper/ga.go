package mapper

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/memo"
	"repro/internal/workload"
)

// TreeSearch explores the full 3D design space (Sec 6): a genetic algorithm
// generates analysis trees by crossover and mutation of Fig 7b encodings
// (compute ordering + resource binding), and every candidate tree's tiling
// factors are tuned by the MCTS tile search. The best tiling feeds back as
// the individual's fitness; the top-K individuals seed the next population.
type TreeSearch struct {
	G    *workload.Graph
	Spec *arch.Spec
	Opts core.Options

	// Population is the number of encodings per generation (the paper
	// samples 20 fusion dataflows per round).
	Population int
	// Generations is the number of GA rounds (the paper converges in
	// under 50).
	Generations int
	// TileRounds is the MCTS budget per individual.
	TileRounds int
	// TopK survivors seed the next generation.
	TopK int
	// Parallel caps concurrent fitness evaluations (default NumCPU).
	Parallel int
	// Seed fixes the random stream.
	Seed int64
	// Cache memoizes fitness by encoding, so GA revisits (and other
	// searches sharing the cache, such as perfbench's replay) skip the MCTS
	// re-tuning. Nil allocates a private cache for this run, as the CLI and
	// the evaluation service use.
	Cache memo.Cache

	// Progress, when set, is called after every completed generation with
	// the best-so-far and a Checkpoint that resumes the search immediately
	// after that generation. Callers persist the checkpoint (the job
	// subsystem writes it to the job store, the CLI to -checkpoint) so a
	// killed search can continue instead of starting over.
	Progress func(ProgressEvent)
	// Checkpoint, when non-nil and valid for this configuration, resumes a
	// previous run at its recorded generation instead of starting fresh.
	// Install it via Resume, which validates compatibility; RunContext
	// silently ignores an incompatible checkpoint (a server recovering a
	// job after a format change restarts the search rather than failing).
	Checkpoint *Checkpoint

	// seeds warm-starts a fresh search: these encodings fill the initial
	// population after the layerwise anchor (slot 0), before any random
	// individuals. WarmStart installs them already ordered, width-checked,
	// repaired and deduplicated. Ignored when a Checkpoint resume is in
	// effect — a resumed population already embeds its seeds.
	seeds []EncodingState

	// Narrow, when set, is called once per candidate dataflow before its
	// MCTS tuning and returns narrowed per-factor domains for
	// TileSearch.Domains (typically spaceck.Analyze(...).AllowedMap(),
	// injected by the composition root so the mapper never imports the
	// analyzer). It must be deterministic and sound — narrowing changes
	// which mappings MCTS samples, so its presence is part of the fitness
	// cache key and two searches sharing a cache must install the same
	// function. Nil means no narrowing.
	Narrow func(df dataflows.Dataflow) map[string][]int
}

// ProgressEvent reports one completed GA generation.
type ProgressEvent struct {
	// Generation counts completed generations (1-based); Generations is
	// the total budget.
	Generation  int
	Generations int
	// BestCycles is the best-so-far cycle count, +Inf while no feasible
	// candidate has been seen; BestEncoding is its Fig 7b rendering.
	BestCycles   float64
	BestEncoding string
	// Checkpoint resumes the search immediately after this generation.
	Checkpoint *Checkpoint
}

// TreeSearchResult is the outcome of a 3D-space exploration.
type TreeSearchResult struct {
	Best     *Evaluation
	Encoding *Encoding
	// Trace is the best-so-far cycles after each generation (the Fig 9b/c
	// exploration traces).
	Trace []float64
}

type individual struct {
	enc    *Encoding
	cycles float64
	eval   *Evaluation
}

// Run executes the combined GA+MCTS search.
func (s *TreeSearch) Run() *TreeSearchResult {
	return s.RunContext(context.Background())
}

// knobs normalizes the GA configuration the same way RunContext applies
// it, so checkpoints and cache keys agree with the effective values.
func (s *TreeSearch) knobs() (pop, gens, topK, rounds int) {
	pop = s.Population
	if pop <= 0 {
		pop = 20
	}
	gens = s.Generations
	if gens <= 0 {
		gens = 50
	}
	topK = s.TopK
	if topK <= 0 {
		topK = pop / 4
		if topK < 2 {
			topK = 2
		}
	}
	rounds = s.TileRounds
	if rounds <= 0 {
		rounds = 40
	}
	return pop, gens, topK, rounds
}

// RunContext is Run with cancellation: the search stops at the next
// generation boundary once ctx is done and returns the best result found so
// far. A cancellation that lands mid-generation discards that generation's
// partial fitness results — they were cut short of their full MCTS budget,
// so keeping them would break both determinism and the shared fitness
// cache — leaving the result exactly at the last completed checkpoint.
func (s *TreeSearch) RunContext(ctx context.Context) *TreeSearchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	pop, gens, topK, rounds := s.knobs()
	n := len(s.G.Ops)

	src := &countingSource{src: rand.NewSource(s.Seed)}
	rng := rand.New(src)

	cache := s.Cache
	if cache == nil {
		cache = memo.NewShardedLRU(4096)
	}
	prefix := s.fitnessKeyPrefix()
	fp := strings.TrimSuffix(prefix, "|")

	res := &TreeSearchResult{}
	tuned := map[string]*TunedStats{}
	var bestStats *TunedStats
	startGen := 0
	var individuals []*individual

	if cp := s.Checkpoint; cp != nil && cp.Fingerprint == fp &&
		cp.Population == pop && cp.Generations == gens && cp.TopK == topK {
		// Restore: population, RNG position, per-candidate statistics (also
		// seeded into the fitness cache so resumed candidates skip MCTS),
		// best-so-far, and trace.
		startGen = cp.NextGen
		src.skip(cp.RNGDraws)
		individuals = make([]*individual, len(cp.Individuals))
		for i, es := range cp.Individuals {
			individuals[i] = &individual{enc: es.encoding()}
		}
		for i := range cp.Tuned {
			ts := cp.Tuned[i]
			key := ts.Encoding.encoding().String()
			tuned[key] = &ts
			if _, ok := cache.Get(prefix + key); !ok {
				cache.Put(prefix+key, ts.cachedFitness())
			}
		}
		if cp.Best != nil {
			b := *cp.Best
			bestStats = &b
			res.Best = &Evaluation{Factors: cloneFactors(b.Factors), Cycles: float64(b.Cycles)}
			res.Encoding = b.Encoding.encoding()
		}
		res.Trace = make([]float64, len(cp.Trace))
		for i, v := range cp.Trace {
			res.Trace[i] = float64(v)
		}
	} else {
		individuals = make([]*individual, pop)
		individuals[0] = &individual{enc: LayerwiseEncoding(n)} // always seed no-fusion
		// Warm start: donor encodings (see WarmStart) fill the slots after
		// the layerwise anchor. Only genotypes enter — every seed is
		// re-evaluated under this search's own cache namespace, so no donor
		// fitness can leak in.
		next := 1
		for _, es := range s.seeds {
			if next >= pop {
				break
			}
			individuals[next] = &individual{enc: es.encoding()}
			next++
		}
		for ; next < pop; next++ {
			individuals[next] = &individual{enc: s.randomEncoding(rng)}
		}
	}

	for g := startGen; g < gens; g++ {
		if ctx.Err() != nil {
			break
		}
		s.evaluatePopulation(ctx, individuals, cache, prefix)
		if ctx.Err() != nil {
			break // mid-generation cancel: discard the partial generation
		}
		for _, ind := range individuals {
			key := ind.enc.String()
			if _, ok := tuned[key]; ok {
				continue
			}
			st := &TunedStats{Encoding: encodingState(ind.enc), Cycles: cpFloat(ind.cycles), Rounds: rounds}
			if ind.eval == nil {
				st.Infeasible = true
			} else {
				st.Factors = cloneFactors(ind.eval.Factors)
			}
			tuned[key] = st
		}
		sort.SliceStable(individuals, func(i, j int) bool {
			return individuals[i].cycles < individuals[j].cycles
		})
		if best := individuals[0]; best.eval != nil &&
			(res.Best == nil || best.cycles < res.Best.Cycles) {
			res.Best = best.eval
			res.Encoding = best.enc.Clone()
			bestStats = tuned[best.enc.String()]
		}
		if res.Best != nil {
			res.Trace = append(res.Trace, res.Best.Cycles)
		} else {
			res.Trace = append(res.Trace, math.Inf(1))
		}
		if g < gens-1 {
			// Next generation: keep the top-K, fill with crossovers and
			// mutations of survivors.
			next := make([]*individual, 0, pop)
			for i := 0; i < topK && i < len(individuals); i++ {
				next = append(next, &individual{enc: individuals[i].enc.Clone()})
			}
			for len(next) < pop {
				a := individuals[rng.Intn(topK)].enc
				b := individuals[rng.Intn(topK)].enc
				child := s.crossover(a, b, rng)
				s.mutate(child, rng)
				next = append(next, &individual{enc: child})
			}
			individuals = next
		}
		if s.Progress != nil {
			bc, be := math.Inf(1), ""
			if res.Best != nil {
				bc, be = res.Best.Cycles, res.Encoding.String()
			}
			s.Progress(ProgressEvent{
				Generation:   g + 1,
				Generations:  gens,
				BestCycles:   bc,
				BestEncoding: be,
				Checkpoint:   s.checkpoint(fp, pop, gens, topK, rounds, g+1, src.draws, individuals, tuned, bestStats, res.Trace),
			})
		}
	}
	s.finalize(res)
	return res
}

// finalize re-derives the winner's full core.Result when the best came out
// of a restored checkpoint (checkpoints store factors and cycles, not the
// whole result). The evaluation is a pure function of the tree, so the
// rebuilt result is identical to the one the original run computed.
func (s *TreeSearch) finalize(res *TreeSearchResult) {
	if res.Best == nil || res.Best.Result != nil {
		return
	}
	gd := NewGeneratedDataflow("candidate", s.G, s.Spec, res.Encoding)
	root, err := gd.Build(res.Best.Factors)
	if err != nil {
		return
	}
	r, err := core.Evaluate(root, s.G, s.Spec, s.Opts)
	if err != nil {
		return
	}
	// Clone rather than mutate: the Result-less Evaluation may be shared
	// through the fitness cache with concurrent searches.
	res.Best = &Evaluation{Factors: res.Best.Factors, Cycles: res.Best.Cycles, Result: r}
}

// cachedFitness is the memoized outcome of tuning one encoding.
type cachedFitness struct {
	cycles float64
	eval   *Evaluation
}

func (s *TreeSearch) evaluatePopulation(ctx context.Context, pop []*individual, cache memo.Cache, prefix string) {
	par := s.Parallel
	if par <= 0 {
		par = runtime.NumCPU()
	}
	type job struct {
		ind  *individual
		seed int64
	}
	var jobs []job
	for _, ind := range pop {
		ind.enc.Repair(s.Spec.NumLevels())
		if hit, ok := cache.Get(prefix + ind.enc.String()); ok {
			f := hit.(*cachedFitness)
			ind.cycles, ind.eval = f.cycles, f.eval
			continue
		}
		jobs = append(jobs, job{ind, s.encodingSeed(ind.enc)})
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			j.ind.cycles, j.ind.eval = s.fitness(ctx, j.ind.enc, j.seed)
		}(j)
	}
	wg.Wait()
	if ctx.Err() != nil {
		// The generation was cut short: these fitness values come from
		// truncated MCTS runs, not the deterministic full-budget outcomes.
		// Caching them would poison this search's resume path and every
		// other search sharing the cache, so the whole generation is
		// discarded.
		return
	}
	for _, j := range jobs {
		cache.Put(prefix+j.ind.enc.String(), &cachedFitness{cycles: j.ind.cycles, eval: j.ind.eval})
	}
}

// fitnessKeyPrefix namespaces the fitness cache by everything besides the
// encoding that determines an encoding's fitness: the architecture, the
// workload graph, the evaluation options, the MCTS budget, and the search
// seed (which fixes each encoding's tuning stream via encodingSeed).
// Without it, two searches sharing one cache — as perfbench's replay
// does — would collide whenever their workloads happen to have equal op
// counts, poisoning each other's results.
func (s *TreeSearch) fitnessKeyPrefix() string {
	rounds := s.TileRounds
	if rounds <= 0 {
		rounds = 40 // fitness's default, so 0 and 40 share entries
	}
	var b strings.Builder
	b.WriteString("tileflow/v1/ga-fitness\n")
	b.WriteString(arch.FormatSpec(s.Spec))
	b.WriteString(workload.CanonicalGraph(s.G))
	fmt.Fprintf(&b, "opts: skipcap=%v skippe=%v noretention=%v tile=%d seed=%d narrow=%v\n",
		s.Opts.SkipCapacityCheck, s.Opts.SkipPECheck, s.Opts.DisableRetention, rounds, s.Seed, s.Narrow != nil)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]) + "|"
}

// encodingSeed derives the MCTS seed for one individual from the encoding
// content and the search seed, not from a shared RNG stream, so the same
// encoding is always tuned identically — cached and uncached runs of the
// same TreeSearch seed produce the same TreeSearchResult regardless of
// cache state or evaluation order.
func (s *TreeSearch) encodingSeed(enc *Encoding) int64 {
	h := fnv.New64a()
	h.Write([]byte(enc.String()))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s.Seed))
	h.Write(b[:])
	return int64(h.Sum64() & math.MaxInt64)
}

// fitness tunes an encoding's tiling with MCTS and returns its best cycles
// (infinite when no valid mapping exists).
func (s *TreeSearch) fitness(ctx context.Context, enc *Encoding, seed int64) (float64, *Evaluation) {
	gd := NewGeneratedDataflow("candidate", s.G, s.Spec, enc)
	rounds := s.TileRounds
	if rounds <= 0 {
		rounds = 40
	}
	ts := &TileSearch{Dataflow: gd, Spec: s.Spec, Opts: s.Opts, Rounds: rounds, Seed: seed}
	if s.Narrow != nil {
		ts.Domains = s.Narrow(gd)
	}
	best, _ := ts.RunContext(ctx)
	if best == nil {
		return math.Inf(1), nil
	}
	return best.Cycles, best
}

// randomEncoding samples the ordering/binding plane uniformly-ish: each op
// fuses into a random later op (biased toward its consumers) at a random
// on-chip level with a random binding, or stays at the top level.
func (s *TreeSearch) randomEncoding(rng *rand.Rand) *Encoding {
	n := len(s.G.Ops)
	maxMem := s.Spec.NumLevels() - 2
	e := LayerwiseEncoding(n)
	for i := 0; i < n-1; i++ {
		if rng.Float64() < 0.3 {
			continue // stay top-level
		}
		// Prefer fusing into a consumer of this op's output.
		var consumers []int
		out := s.G.Ops[i].Write.Tensor
		for j := i + 1; j < n; j++ {
			for _, r := range s.G.Ops[j].Reads {
				if r.Tensor == out {
					consumers = append(consumers, j)
				}
			}
		}
		if len(consumers) > 0 && rng.Float64() < 0.8 {
			e.Target[i] = consumers[rng.Intn(len(consumers))]
		} else {
			e.Target[i] = i + 1 + rng.Intn(n-1-i)
		}
		e.Mem[i] = 1 + rng.Intn(maxMem)
		e.Binding[i] = core.Binding(rng.Intn(4))
	}
	return e
}

// crossover swaps whole operator columns between two parents at a random
// split point.
func (s *TreeSearch) crossover(a, b *Encoding, rng *rand.Rand) *Encoding {
	n := len(a.Target)
	cut := rng.Intn(n)
	child := a.Clone()
	for i := cut; i < n; i++ {
		child.Target[i] = b.Target[i]
		child.Mem[i] = b.Mem[i]
		child.Binding[i] = b.Binding[i]
	}
	return child
}

// mutate rewrites one random column.
func (s *TreeSearch) mutate(e *Encoding, rng *rand.Rand) {
	n := len(e.Target)
	if n == 0 {
		return
	}
	i := rng.Intn(n)
	maxMem := s.Spec.NumLevels() - 2
	switch rng.Intn(3) {
	case 0:
		if i < n-1 && rng.Float64() < 0.7 {
			e.Target[i] = i + 1 + rng.Intn(n-1-i)
		} else {
			e.Target[i] = -1
		}
	case 1:
		e.Mem[i] = 1 + rng.Intn(max(1, maxMem))
	case 2:
		e.Binding[i] = core.Binding(rng.Intn(4))
	}
}
