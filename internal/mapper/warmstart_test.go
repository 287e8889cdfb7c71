package mapper

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/memo"
	"repro/internal/workload"
)

// attentionGraph builds the attention workload for a Table 2 shape name.
func attentionGraph(t *testing.T, name string) *workload.Graph {
	t.Helper()
	shape, ok := workload.AttentionShapeByName(name)
	if !ok {
		t.Fatalf("no attention shape %q", name)
	}
	return workload.Attention(shape)
}

// donorCheckpoint runs a small search to completion and returns its last
// generation-boundary checkpoint.
func donorCheckpoint(t *testing.T, g *workload.Graph, seed int64) *Checkpoint {
	t.Helper()
	var last *Checkpoint
	s := &TreeSearch{
		G: g, Spec: arch.Edge(),
		Population: 6, Generations: 2, TileRounds: 4, TopK: 2, Parallel: 1, Seed: seed,
		Progress: func(ev ProgressEvent) { last = ev.Checkpoint },
	}
	if res := s.Run(); res.Best == nil {
		t.Fatal("donor search found nothing feasible")
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}
	return last
}

func TestWarmStartSeedsPopulation(t *testing.T) {
	donor := donorCheckpoint(t, attentionGraph(t, "Bert-S"), 1)

	// Structure-identical, shape-different target.
	warm := &TreeSearch{
		G: attentionGraph(t, "Bert-L"), Spec: arch.Edge(),
		Population: 6, Generations: 2, TileRounds: 4, TopK: 2, Parallel: 1, Seed: 2,
	}
	n := warm.WarmStart(donor)
	if n == 0 || n > 5 { // capped at population-1
		t.Fatalf("installed %d seeds", n)
	}
	if len(warm.seeds) != n {
		t.Fatalf("seeds len %d != %d", len(warm.seeds), n)
	}
	// Best donor candidate leads the seed list.
	if donor.Best == nil {
		t.Fatal("donor has no best")
	}
	bestKey := donor.Best.Encoding.encoding().String()
	lw := LayerwiseEncoding(len(warm.G.Ops)).String()
	if got := warm.seeds[0].encoding().String(); got != bestKey && bestKey != lw {
		t.Fatalf("first seed %q is not the donor best %q", got, bestKey)
	}
	// No duplicates, and the layerwise anchor is never duplicated.
	seen := map[string]bool{lw: true}
	for _, es := range warm.seeds {
		k := es.encoding().String()
		if seen[k] {
			t.Fatalf("duplicate seed %q", k)
		}
		seen[k] = true
	}
	if res := warm.Run(); res.Best == nil {
		t.Fatal("warm search found nothing feasible")
	}
}

func TestWarmStartRejectsForeignStructure(t *testing.T) {
	donor := donorCheckpoint(t, attentionGraph(t, "Bert-S"), 1)
	warm := &TreeSearch{
		G: workload.Matmul(32, 32, 32), Spec: arch.Edge(),
		Population: 6, Generations: 2, TileRounds: 6, TopK: 2, Parallel: 1, Seed: 2,
	}
	if n := warm.WarmStart(donor); n != 0 {
		t.Fatalf("foreign-structure donor installed %d seeds", n)
	}
	if warm.WarmStart(nil) != 0 {
		t.Fatal("nil donor installed seeds")
	}
}

// spyCache records every cache key crossing it.
type spyCache struct {
	mu   sync.Mutex
	keys []string
}

func (c *spyCache) Get(key string) (any, bool) { c.record(key); return nil, false }
func (c *spyCache) Put(key string, v any)      { c.record(key) }
func (c *spyCache) Len() int                   { return 0 }
func (c *spyCache) Stats() memo.Stats          { return memo.Stats{} }
func (c *spyCache) record(key string) {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
}

var _ memo.Cache = (*spyCache)(nil)

// TestWarmStartNoFitnessCrossesNamespaces is the cache-poisoning safety
// gate: a warm-started search must confine every fitness cache access to
// its OWN namespace (fitness key prefix over its arch, its shapes, its
// seed). Donor fitness values live under the donor's prefix; if any key
// from a warm run ever carried a foreign prefix, a stale donor could
// poison the new search's results.
func TestWarmStartNoFitnessCrossesNamespaces(t *testing.T) {
	donor := donorCheckpoint(t, attentionGraph(t, "Bert-S"), 1)

	spy := &spyCache{}
	warm := &TreeSearch{
		G: attentionGraph(t, "Bert-L"), Spec: arch.Edge(),
		Population: 6, Generations: 2, TileRounds: 4, TopK: 2, Parallel: 1, Seed: 2,
		Cache: spy,
	}
	if warm.WarmStart(donor) == 0 {
		t.Fatal("no seeds installed")
	}
	ownPrefix := warm.fitnessKeyPrefix()

	donorSearch := &TreeSearch{
		G: attentionGraph(t, "Bert-S"), Spec: arch.Edge(),
		Population: 6, Generations: 2, TileRounds: 4, TopK: 2, Parallel: 1, Seed: 1,
	}
	donorPrefix := donorSearch.fitnessKeyPrefix()
	if ownPrefix == donorPrefix {
		t.Fatal("test defeated: prefixes collide")
	}

	warm.Run()
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.keys) == 0 {
		t.Fatal("no cache traffic observed")
	}
	for _, k := range spy.keys {
		if !strings.HasPrefix(k, ownPrefix) {
			t.Fatalf("cache key outside own namespace: %q", k)
		}
		if strings.HasPrefix(k, donorPrefix) {
			t.Fatalf("cache key in donor namespace: %q", k)
		}
	}
}
