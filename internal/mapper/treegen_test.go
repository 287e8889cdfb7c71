package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestPropertyRepairAlwaysValid: Repair turns arbitrary encodings into
// structurally valid ones (forward targets, in-range levels, hosts with
// room).
func TestPropertyRepairAlwaysValid(t *testing.T) {
	prop := func(targets [7]int8, mems [7]int8, binds [7]uint8) bool {
		n := 7
		e := &Encoding{Target: make([]int, n), Mem: make([]int, n), Binding: make([]core.Binding, n)}
		for i := 0; i < n; i++ {
			e.Target[i] = int(targets[i])
			e.Mem[i] = int(mems[i])
			e.Binding[i] = core.Binding(int(binds[i]) % 4)
		}
		e.Repair(4) // Cloud-like: levels 0..3, on-chip 1..2
		span := make([]int, n)
		for i := n - 1; i >= 0; i-- {
			if e.Target[i] < 0 {
				span[i] = 2
				continue
			}
			host := e.Target[i]
			if host <= i || host >= n {
				return false // backward/self target survived
			}
			if e.Mem[i] < 1 || e.Mem[i] > span[host] {
				return false // level outside the host's chain
			}
			span[i] = e.Mem[i] - 1
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGeneratedTreesEvaluate: any repaired encoding with default
// factors either builds a tree that passes full evaluation, or fails with
// a typed error — never panics and never produces invalid metrics.
func TestPropertyGeneratedTreesEvaluate(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	g := workload.Attention(shape)
	spec := arch.Edge()
	n := len(g.Ops)
	prop := func(targets [7]uint8, mems [7]uint8, binds [7]uint8) bool {
		e := LayerwiseEncoding(n)
		for i := 0; i < n && i < 7; i++ {
			if targets[i]%3 != 0 && i < n-1 {
				e.Target[i] = i + 1 + int(targets[i])%(n-1-i)
			}
			e.Mem[i] = 1 + int(mems[i])%2
			e.Binding[i] = core.Binding(int(binds[i]) % 4)
		}
		gd := NewGeneratedDataflow("fuzz", g, spec, e)
		root, err := gd.Build(gd.DefaultFactors())
		if err != nil {
			return true // structurally impossible combinations may fail
		}
		res, err := core.Evaluate(root, g, spec, core.Options{SkipCapacityCheck: true, SkipPECheck: true})
		if err != nil {
			return true
		}
		return res.Cycles > 0 && res.DRAMTraffic() > 0 && res.EnergyPJ() > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEncodingStringStable: the cache key is deterministic and
// distinguishes encodings.
func TestEncodingStringStable(t *testing.T) {
	a := LayerwiseEncoding(3)
	b := LayerwiseEncoding(3)
	if a.String() != b.String() {
		t.Error("identical encodings render differently")
	}
	b.Target[0] = 2
	b.Mem[0] = 1
	b.Binding[0] = core.Pipe
	if a.String() == b.String() {
		t.Error("different encodings render identically")
	}
	c := b.Clone()
	if c.String() != b.String() {
		t.Error("clone differs")
	}
	c.Target[0] = -1
	if c.String() == b.String() {
		t.Error("clone mutation leaked")
	}
}

// TestCrossoverAndMutatePreserveShape: GA operators keep column counts and
// produce repairable children.
func TestCrossoverAndMutatePreserveShape(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	g := workload.Attention(shape)
	s := &TreeSearch{G: g, Spec: arch.Edge(), Seed: 3}
	rng := rand.New(rand.NewSource(3))
	a := s.randomEncoding(rng)
	b := s.randomEncoding(rng)
	for i := 0; i < 50; i++ {
		child := s.crossover(a, b, rng)
		s.mutate(child, rng)
		if len(child.Target) != len(a.Target) || len(child.Mem) != len(a.Mem) || len(child.Binding) != len(a.Binding) {
			t.Fatal("shape changed")
		}
		child.Repair(s.Spec.NumLevels())
		for j, tgt := range child.Target {
			if tgt >= 0 && tgt <= j {
				t.Fatalf("repair left backward target at %d", j)
			}
		}
	}
}

// TestTreeSearchDeterministic: same seed, same best.
func TestTreeSearchDeterministic(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("ViT/16-B")
	g := workload.Attention(shape)
	run := func() (float64, string) {
		s := &TreeSearch{G: g, Spec: arch.Edge(), Population: 8, Generations: 4, TileRounds: 20, Parallel: 1, Seed: 11}
		r := s.Run()
		if r.Best == nil {
			t.Fatal("nothing found")
		}
		return r.Best.Cycles, r.Encoding.String()
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Errorf("nondeterministic: %v/%s vs %v/%s", c1, e1, c2, e2)
	}
}

// buildFixture is one GA candidate as the search builds it: Bert-S on
// Cloud with every op fused into its consumer under Pipe, and a factor map
// that tiles several levels and both spatial splits.
func buildFixture() (*GeneratedDataflow, map[string]int) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	g := workload.Attention(shape)
	spec := arch.Cloud()
	enc := LayerwiseEncoding(len(g.Ops))
	for i := 0; i < len(g.Ops)-1; i++ {
		enc.Target[i], enc.Mem[i], enc.Binding[i] = i+1, 2, core.Pipe
	}
	gd := NewGeneratedDataflow("candidate", g, spec, enc)
	f := gd.DefaultFactors()
	f["L2_m"], f["L1_m"], f["L2_l"], f["L1_k"] = 4, 2, 8, 2
	return gd, f
}

// buildSink keeps BenchmarkGeneratedBuild's result live.
var buildSink *core.Node

// BenchmarkGeneratedBuild measures one GA candidate's tree construction.
func BenchmarkGeneratedBuild(b *testing.B) {
	gd, f := buildFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, err := gd.Build(f)
		if err != nil {
			b.Fatal(err)
		}
		buildSink = root
	}
}

// TestGeneratedBuildAllocs is Build's timing-free cost gate: a feasible
// candidate tree costs three exact-size slabs (nodes, child pointers,
// loops) whatever its size, so every factor-independent step stays in the
// plan NewGeneratedDataflow computed.
func TestGeneratedBuildAllocs(t *testing.T) {
	gd, f := buildFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := gd.Build(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Build allocates %v objects per candidate, want <= 3", allocs)
	}
}

// rejectFixture is buildFixture with an L1_m factor that divides m on its
// own, but not once the L2_m factor and the sub-core split above it are
// applied: the candidate fails leaf divisibility at op QK.
func rejectFixture() (*GeneratedDataflow, map[string]int) {
	gd, f := buildFixture()
	f["L1_m"] = gd.G.DimSize("m")
	return gd, f
}

// errSink keeps TestGeneratedRejectAllocs's reference error live.
var errSink error

// minAllocs is the fewest allocations any of 50 single calls of fn
// makes. Under the race detector sync.Pool drops pooled objects (fmt's
// printers among them) at random, so one call can allocate more than the
// next; the minimum is stable, and a path that gains an allocation still
// raises it.
func minAllocs(fn func()) float64 {
	least := math.Inf(1)
	for range 50 {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// TestGeneratedRejectAllocs: a candidate that fails leaf divisibility
// allocates no tree; it costs no more than formatting its error.
func TestGeneratedRejectAllocs(t *testing.T) {
	gd, f := rejectFixture()
	op := gd.G.Op("QK")
	var dim workload.Dim
	for _, d := range op.Dims {
		if d.Name == "m" {
			dim = d
		}
	}
	covered := f["L2_m"] * f["L1_m"] * f["sp_s"]
	reference := func() error {
		return fmt.Errorf("mapper: op %s dim %s: path factors %d do not divide %d", op.Name, dim.Name, covered, dim.Size)
	}
	_, err := gd.Build(f)
	if err == nil || err.Error() != reference().Error() {
		t.Fatalf("Build error %v, want %v", err, reference())
	}
	want := minAllocs(func() { errSink = reference() })
	allocs := minAllocs(func() {
		if _, err := gd.Build(f); err == nil {
			t.Fatal("candidate built")
		}
	})
	if allocs > want {
		t.Errorf("a rejected candidate allocates %v objects, its error alone %v", allocs, want)
	}
}

// TestNewGeneratedDataflowAllocs gates the per-individual set-up: the plan
// interns each factor key once and fills presized slabs, so it costs at
// most half the 247 allocations of one fmt.Sprintf key per loop candidate.
func TestNewGeneratedDataflowAllocs(t *testing.T) {
	gd, _ := buildFixture()
	allocs := testing.AllocsPerRun(100, func() {
		NewGeneratedDataflow("candidate", gd.G, gd.Spec, gd.Enc)
	})
	if allocs > 123 {
		t.Errorf("NewGeneratedDataflow allocates %v objects, want <= 123", allocs)
	}
}

// BenchmarkGeneratedBuildReject measures one candidate that fails leaf
// divisibility.
func BenchmarkGeneratedBuildReject(b *testing.B) {
	gd, f := rejectFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gd.Build(f); err == nil {
			b.Fatal("candidate built")
		}
	}
}

// gdSink keeps BenchmarkNewGeneratedDataflow's result live.
var gdSink *GeneratedDataflow

// BenchmarkNewGeneratedDataflow measures one GA individual's set-up: the
// wrapper and its build plan.
func BenchmarkNewGeneratedDataflow(b *testing.B) {
	gd, _ := buildFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gdSink = NewGeneratedDataflow("candidate", gd.G, gd.Spec, gd.Enc)
	}
}
