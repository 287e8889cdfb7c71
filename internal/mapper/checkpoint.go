package mapper

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// CheckpointVersion is the serialized checkpoint format version. Decoding
// rejects other versions, so a format change can never silently resume a
// stale file.
const CheckpointVersion = 1

// Checkpoint is the serializable state of a TreeSearch at a generation
// boundary. It captures everything the GA needs to continue exactly where
// it stopped — the current (not yet evaluated) population, the RNG stream
// position, the per-candidate tuning statistics, and the best-so-far — so
// a search killed at any checkpoint and resumed reproduces the identical
// trajectory and final best as an uninterrupted run with the same seed.
//
// The CLI (tileflow-search -checkpoint/-resume) and the job subsystem of
// the evaluation service both persist this one format through
// EncodeCheckpoint/DecodeCheckpoint.
type Checkpoint struct {
	Version int `json:"version"`
	// Fingerprint hashes the architecture, the canonical workload graph,
	// the evaluation options, the MCTS budget, and the seed (the same
	// material as the fitness cache namespace). Resume refuses a
	// checkpoint whose fingerprint does not match the configured search.
	Fingerprint string `json:"fingerprint"`
	Seed        int64  `json:"seed"`
	Population  int    `json:"population"`
	Generations int    `json:"generations"`
	TopK        int    `json:"top_k"`
	TileRounds  int    `json:"tile_rounds"`
	// NextGen is the index of the first generation still to run; equal to
	// Generations when the search already completed.
	NextGen int `json:"next_gen"`
	// RNGDraws counts the raw Int63 draws consumed from the seeded source.
	// Resume rebuilds the source from Seed and skips this many draws,
	// landing on the identical stream state.
	RNGDraws uint64 `json:"rng_draws"`
	// Individuals is the population NextGen will evaluate, in order (order
	// matters: the survivor sort is stable, so ties keep insertion order).
	Individuals []EncodingState `json:"individuals"`
	// Tuned is the per-candidate MCTS statistics accumulated so far: every
	// encoding's tuned outcome, keyed by its (repaired) encoding. Resume
	// seeds the fitness cache from it, so already-tuned candidates skip
	// the MCTS re-run.
	Tuned []TunedStats `json:"tuned,omitempty"`
	// Best is the best-so-far candidate, nil while nothing feasible has
	// been seen.
	Best *TunedStats `json:"best,omitempty"`
	// Trace is the best-so-far cycles after each completed generation
	// (infinite entries mark generations before the first feasible point).
	Trace []cpFloat `json:"trace,omitempty"`
}

// Complete reports whether the checkpoint captured a finished search.
func (cp *Checkpoint) Complete() bool { return cp.NextGen >= cp.Generations }

// EncodingState is the serialized form of an Encoding (one Fig 7b table
// row: per-operator fusion target, staging level, inter-tile binding).
type EncodingState struct {
	Target  []int `json:"target"`
	Mem     []int `json:"mem"`
	Binding []int `json:"binding"`
}

func encodingState(e *Encoding) EncodingState {
	s := EncodingState{
		Target: append([]int(nil), e.Target...),
		Mem:    append([]int(nil), e.Mem...),
	}
	s.Binding = make([]int, len(e.Binding))
	for i, b := range e.Binding {
		s.Binding[i] = int(b)
	}
	return s
}

func (s EncodingState) encoding() *Encoding {
	e := &Encoding{
		Target:  append([]int(nil), s.Target...),
		Mem:     append([]int(nil), s.Mem...),
		Binding: make([]core.Binding, len(s.Binding)),
	}
	for i, b := range s.Binding {
		e.Binding[i] = core.Binding(b)
	}
	return e
}

// TunedStats is one candidate's MCTS tuning outcome: the statistics the GA
// needs to treat the candidate as already evaluated. Infeasible candidates
// (no valid mapping within the budget) carry infinite cycles and no
// factors.
type TunedStats struct {
	Encoding   EncodingState  `json:"encoding"`
	Infeasible bool           `json:"infeasible,omitempty"`
	Cycles     cpFloat        `json:"cycles"`
	Factors    map[string]int `json:"factors,omitempty"`
	// Rounds is the MCTS budget the candidate was tuned with.
	Rounds int `json:"rounds"`
}

// cachedFitness rebuilds the fitness-cache entry for a restored candidate.
// The Evaluation carries no core.Result — the search finalizer re-derives
// the result for the winner, and nothing else reads it.
func (t *TunedStats) cachedFitness() *cachedFitness {
	if t.Infeasible {
		return &cachedFitness{cycles: math.Inf(1)}
	}
	return &cachedFitness{
		cycles: float64(t.Cycles),
		eval:   &Evaluation{Factors: cloneFactors(t.Factors), Cycles: float64(t.Cycles)},
	}
}

func cloneFactors(f map[string]int) map[string]int {
	if f == nil {
		return nil
	}
	out := make(map[string]int, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// cpFloat is a float64 that survives JSON: infinities (which appear in
// traces before the first feasible candidate and as infeasible fitness)
// are encoded as the strings "+inf"/"-inf", finite values as ordinary JSON
// numbers. Finite values take encoding/json's float64 form, the shortest
// round-tripping representation, so decode(encode(x)) is bit-identical —
// a requirement, since resumed traces are compared for exact equality.
type cpFloat float64

func (f cpFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: "NaN"}
	}
	return appendJSONFloat(make([]byte, 0, 24), v), nil
}

// appendJSONFloat appends a finite v exactly as json.Marshal(v) renders
// it: shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on,
// with a two-digit negative exponent trimmed (e-07 becomes e-7).
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func (f *cpFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+inf"`:
		*f = cpFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = cpFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = cpFloat(v)
	return nil
}

// EncodeCheckpoint serializes a checkpoint to its canonical JSON form.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("mapper: nil checkpoint")
	}
	return json.Marshal(cp)
}

// DecodeCheckpoint parses a checkpoint produced by EncodeCheckpoint,
// rejecting unknown versions and structurally inconsistent state.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := json.Unmarshal(b, cp); err != nil {
		return nil, fmt.Errorf("mapper: bad checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("mapper: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.NextGen < 0 || cp.NextGen > cp.Generations {
		return nil, fmt.Errorf("mapper: checkpoint next_gen %d outside [0, %d]", cp.NextGen, cp.Generations)
	}
	if len(cp.Individuals) != cp.Population {
		return nil, fmt.Errorf("mapper: checkpoint has %d individuals, population is %d", len(cp.Individuals), cp.Population)
	}
	return cp, nil
}

// Resume validates cp against this search's configuration and installs it,
// so the next RunContext continues from the checkpointed generation. The
// checkpoint must come from a search over the same architecture, workload,
// options, and seed (fingerprint) with the same GA shape.
func (s *TreeSearch) Resume(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("mapper: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("mapper: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if got, want := cp.Fingerprint, s.Fingerprint(); got != want {
		return fmt.Errorf("mapper: checkpoint fingerprint %.12s… does not match this search (%.12s…): different arch, workload, options, tile budget, or seed", got, want)
	}
	pop, gens, topK, _ := s.knobs()
	if cp.Population != pop || cp.Generations != gens || cp.TopK != topK {
		return fmt.Errorf("mapper: checkpoint GA shape pop=%d gens=%d topk=%d does not match configured pop=%d gens=%d topk=%d",
			cp.Population, cp.Generations, cp.TopK, pop, gens, topK)
	}
	n := len(s.G.Ops)
	for _, ind := range cp.Individuals {
		if len(ind.Target) != n || len(ind.Mem) != n || len(ind.Binding) != n {
			return fmt.Errorf("mapper: checkpoint encoding width does not match %d-op graph", n)
		}
	}
	s.Checkpoint = cp
	return nil
}

// Fingerprint identifies the search configuration a checkpoint belongs to:
// the SHA-256 over architecture, canonical graph, options, tile budget,
// and seed that also namespaces the fitness cache.
func (s *TreeSearch) Fingerprint() string {
	return strings.TrimSuffix(s.fitnessKeyPrefix(), "|")
}

// checkpoint snapshots the current search state at a generation boundary.
func (s *TreeSearch) checkpoint(fp string, pop, gens, topK, rounds, nextGen int, draws uint64,
	individuals []*individual, tuned map[string]*TunedStats, best *TunedStats, trace []float64) *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: fp,
		Seed:        s.Seed,
		Population:  pop,
		Generations: gens,
		TopK:        topK,
		TileRounds:  rounds,
		NextGen:     nextGen,
		RNGDraws:    draws,
	}
	cp.Individuals = make([]EncodingState, len(individuals))
	for i, ind := range individuals {
		cp.Individuals[i] = encodingState(ind.enc)
	}
	keys := make([]string, 0, len(tuned))
	for k := range tuned {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cp.Tuned = make([]TunedStats, 0, len(keys))
	for _, k := range keys {
		cp.Tuned = append(cp.Tuned, *tuned[k])
	}
	if best != nil {
		b := *best
		cp.Best = &b
	}
	cp.Trace = make([]cpFloat, len(trace))
	for i, v := range trace {
		cp.Trace[i] = cpFloat(v)
	}
	return cp
}

// countingSource wraps the seeded math/rand source and counts raw Int63
// draws, giving the GA's RNG a serializable stream position. The wrapper
// passes Int63 through unchanged, so the stream is identical to an
// unwrapped rand.NewSource(seed).
type countingSource struct {
	src   rand.Source
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// skip fast-forwards the underlying stream to a recorded position. Cheap:
// a search consumes a few draws per individual per generation.
func (c *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Int63()
	}
	c.draws = n
}
