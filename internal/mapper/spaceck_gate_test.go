package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/spaceck"
	"repro/internal/workload"
)

// narrowSpec is a 4-PE machine (mesh 2×2): spatial splits past 4 trip the
// pe-budget rule, so the analyzer prunes most of the spatial factor's
// divisor list.
func narrowSpec() *arch.Spec {
	return &arch.Spec{
		Name: "narrow-bench",
		Levels: []arch.Level{
			{Name: "Reg", CapacityBytes: 2 << 10, Fanout: 1},
			{Name: "L1", CapacityBytes: 1 << 20, BandwidthGBs: 100, Fanout: 4},
			{Name: "DRAM", CapacityBytes: 0, BandwidthGBs: 10, Fanout: 1},
		},
		MeshX: 2, MeshY: 2,
		FreqGHz: 1, WordBytes: 2, MACsPerPE: 1, VectorLanesPerSubcore: 2,
	}
}

func narrowGraph(i, k int) *workload.Graph {
	op := &workload.Operator{
		Name: "A", Kind: workload.KindMAC,
		Dims: []workload.Dim{{Name: "i", Size: i}, {Name: "k", Size: k}},
		Reads: []workload.Access{
			{Tensor: "Q", Index: []workload.Index{workload.I("i"), workload.I("k")}},
		},
		Write: workload.Access{Tensor: "O", Index: []workload.Index{workload.I("i")}},
	}
	return workload.MustGraph("narrow", workload.WordBytes, op)
}

// narrowTemplate has a temporal root factor `a` and a spatial leaf factor
// `b`, both over the divisors of i. On narrowSpec every b > 4 is infeasible
// (pe-budget) whatever a is — 4 of b's 7 divisors, so ~57% of uniformly
// sampled assignments carry a provably dead value. Assignments with
// a·b > i fail to build, in or out of the narrowed domains alike.
type narrowTemplate struct {
	g *workload.Graph
	i int
}

func (t *narrowTemplate) Name() string           { return "narrow-template" }
func (t *narrowTemplate) Graph() *workload.Graph { return t.g }
func (t *narrowTemplate) StructureStable() bool  { return false }
func (t *narrowTemplate) Factors() []dataflows.FactorSpec {
	return []dataflows.FactorSpec{
		{Key: "a", Total: t.i, Doc: "temporal i tile at DRAM"},
		{Key: "b", Total: t.i, Doc: "spatial i split at the leaf"},
	}
}
func (t *narrowTemplate) DefaultFactors() map[string]int { return map[string]int{"a": 1, "b": 1} }
func (t *narrowTemplate) Build(f map[string]int) (*core.Node, error) {
	a, b := f["a"], f["b"]
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	if t.i%(a*b) != 0 {
		return nil, fmt.Errorf("a*b=%d does not divide %d", a*b, t.i)
	}
	op := t.g.Op("A")
	loops := []core.Loop{core.T("i", t.i/(a*b)), core.T("k", 8)}
	if b > 1 {
		loops = append(loops, core.S("i", b))
	}
	leaf := core.Leaf("lf", op, loops...)
	t1 := core.Tile("t1", 1, core.Seq, nil, leaf)
	return core.Tile("r", 2, core.Seq, []core.Loop{core.T("i", a)}, t1), nil
}

// TestTileSearchDomainsSkipPruned: a search given the analyzer's narrowed
// domains never expands a pruned factor value (beyond the template-default
// seed) and still finds the same optimum as the unnarrowed search.
func TestTileSearchDomainsSkipPruned(t *testing.T) {
	df := &narrowTemplate{g: narrowGraph(16, 8), i: 16}
	spec := narrowSpec()
	rep := spaceck.Analyze(df, spec, spaceck.Options{})
	if !rep.Complete || rep.Empty {
		t.Fatalf("analysis: complete=%v empty=%v", rep.Complete, rep.Empty)
	}
	domains := rep.AllowedMap()
	if len(domains["b"]) >= len(dataflows.Divisors(16)) {
		t.Fatalf("expected b narrowed below its %d divisors, got %v", len(dataflows.Divisors(16)), domains["b"])
	}

	rec := &recordingDataflow{Dataflow: df}
	s := &TileSearch{Dataflow: rec, Spec: spec, Rounds: 120, Seed: 7, Domains: domains}
	best, trace := s.Run()
	if best == nil {
		t.Fatal("narrowed search found nothing")
	}
	if len(trace) == 0 {
		t.Fatal("no trace")
	}
	def := df.DefaultFactors()
	for _, f := range rec.built {
		if mapsEqual(f, def) {
			continue // the default-factors seed bypasses the domains by design
		}
		if !rep.Contains(f) {
			t.Errorf("search built pruned assignment %v", f)
		}
	}

	// Same optimum as the unnarrowed search (soundness end to end: the
	// pruned values cannot hold the best point).
	ref := &TileSearch{Dataflow: df, Spec: spec, Rounds: 120, Seed: 7}
	refBest, _ := ref.Run()
	if refBest == nil {
		t.Fatal("reference search found nothing")
	}
	if best.Cycles != refBest.Cycles {
		t.Errorf("narrowed best %v cycles, unnarrowed %v", best.Cycles, refBest.Cycles)
	}
}

// TestTileSearchEmptyDomain: a factor narrowed to nothing makes the search
// return "no valid mapping" immediately.
func TestTileSearchEmptyDomain(t *testing.T) {
	df := &narrowTemplate{g: narrowGraph(16, 8), i: 16}
	s := &TileSearch{Dataflow: df, Spec: narrowSpec(), Rounds: 50, Seed: 1,
		Domains: map[string][]int{"b": {}}}
	best, trace := s.Run()
	if best != nil || len(trace) != 0 {
		t.Errorf("empty domain: best=%v trace=%v, want nil/empty", best, trace)
	}
}

// TestTreeSearchNarrowInjection: the GA forwards Narrow's domains to every
// individual's tile search and keys the fitness cache on its presence.
func TestTreeSearchNarrowInjection(t *testing.T) {
	g := narrowGraph(16, 8)
	spec := narrowSpec()
	calls := 0
	narrow := func(df dataflows.Dataflow) map[string][]int {
		calls++
		return spaceck.Analyze(df, spec, spaceck.Options{MaxProbes: 2000}).AllowedMap()
	}
	s := &TreeSearch{G: g, Spec: spec, Population: 4, Generations: 2, TileRounds: 10,
		Seed: 3, Parallel: 1, Narrow: narrow}
	res := s.RunContext(nil)
	if calls == 0 {
		t.Fatal("Narrow was never called")
	}
	if res.Best == nil {
		t.Fatal("narrowed GA found nothing on a feasible workload")
	}
	with := s.fitnessKeyPrefix()
	s.Narrow = nil
	without := s.fitnessKeyPrefix()
	if with == without {
		t.Error("fitness cache key ignores narrowing; shared caches would collide")
	}
}

// recordingDataflow wraps a template and records every Build's factors.
type recordingDataflow struct {
	dataflows.Dataflow
	built []map[string]int
}

func (r *recordingDataflow) Build(f map[string]int) (*core.Node, error) {
	cp := make(map[string]int, len(f))
	for k, v := range f {
		cp[k] = v
	}
	r.built = append(r.built, cp)
	return r.Dataflow.Build(f)
}

// StructureStable forwards the wrapped template's declaration, so a
// recorded search takes the same evaluation path as an unwrapped one.
func (r *recordingDataflow) StructureStable() bool {
	return dataflows.IsStructureStable(r.Dataflow)
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// spaceckStream samples n factor assignments uniformly over the divisor
// grid — the invalid-heavy candidate stream (~57% carry a dead b value).
func spaceckStream(n int, total int) []map[string]int {
	divs := dataflows.Divisors(total)
	rng := rand.New(rand.NewSource(42))
	out := make([]map[string]int, n)
	for i := range out {
		out[i] = map[string]int{
			"a": divs[rng.Intn(len(divs))],
			"b": divs[rng.Intn(len(divs))],
		}
	}
	return out
}

// TestSpaceckNarrowingCounts pins what narrowing the space once saves on
// the invalid-heavy assignment stream, in exact counts. The baseline path
// builds and pre-screens every candidate (Build, then QuickReject); the
// narrowed path first drops every assignment outside the analyzer's kept
// domains, in the plain-data form TileSearch.Domains consumes, and only
// builds and pre-screens the rest. Both must accept the same candidates.
func TestSpaceckNarrowingCounts(t *testing.T) {
	const total = 64
	df := &narrowTemplate{g: narrowGraph(total, 8), i: total}
	spec := narrowSpec()
	stream := spaceckStream(20000, total)
	rep := spaceck.Analyze(df, spec, spaceck.Options{})
	if !rep.Complete {
		t.Fatalf("bench space of %d points should narrow exactly", rep.SpaceSize)
	}
	sets := map[string]map[int]bool{}
	for k, vals := range rep.AllowedMap() {
		sets[k] = map[int]bool{}
		for _, v := range vals {
			sets[k][v] = true
		}
	}

	// pruned applies the domains as TileSearch does: a key the report
	// does not narrow keeps every value.
	pruned := func(f map[string]int) bool {
		for k, v := range f {
			if m, ok := sets[k]; ok && !m[v] {
				return true
			}
		}
		return false
	}

	type tally struct{ builds, screens, accepts int }
	run := func(narrowed bool) (c tally) {
		for _, f := range stream {
			if narrowed && pruned(f) {
				continue // provably infeasible: no Build, no pre-screen
			}
			c.builds++
			root, err := df.Build(f)
			if err != nil {
				continue
			}
			c.screens++
			if core.QuickReject(root, df.Graph(), spec, core.Options{}) != nil {
				continue
			}
			c.accepts++
			if !rep.Contains(f) {
				t.Fatalf("false prune: accepted assignment %v outside domains", f)
			}
		}
		return c
	}
	dead := 0
	for _, f := range stream {
		if !rep.Contains(f) {
			dead++
		}
	}
	if 2*dead < len(stream) {
		t.Fatalf("stream only %d/%d prunable; the comparison wants an invalid-heavy stream", dead, len(stream))
	}
	base, narrow := run(false), run(true)
	t.Logf("baseline %+v, narrowed %+v", base, narrow)
	if base.accepts != narrow.accepts {
		t.Fatalf("accept counts differ: baseline %d, narrowed %d", base.accepts, narrow.accepts)
	}
	if want := (tally{builds: 20000, screens: 11456, accepts: 7489}); base != want {
		t.Errorf("baseline path %+v, want %+v", base, want)
	}
	if want := (tally{builds: 8706, screens: 7489, accepts: 7489}); narrow != want {
		t.Errorf("narrowed path %+v, want %+v", narrow, want)
	}
}
