package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// pipelineErr is what the fail-fast Compile → Evaluate pipeline says about
// a design point.
func pipelineErr(root *Node, g *workload.Graph, spec *arch.Spec, opts Options) error {
	p, err := Compile(root, g, spec)
	if err != nil {
		return err
	}
	_, err = p.Evaluate(context.Background(), opts)
	return err
}

// staticMutation builds one invalid variant of the Sec 4.2 tree per rule.
type staticMutation struct {
	name string
	rule string
	mut  func(g *workload.Graph, root *Node) *Node
}

func staticMutations() []staticMutation {
	return []staticMutation{
		{"bad coverage", RuleCoverage, func(g *workload.Graph, root *Node) *Node {
			root.Children[0].Children[0].Loops[1].Extent = 16 // l tiled to 16·2 = 32 ≠ 64
			return root
		}},
		{"zero extent", RuleLoopExtent, func(g *workload.Graph, root *Node) *Node {
			root.Loops[0].Extent = 0
			return root
		}},
		{"foreign dim", RuleLoopDim, func(g *workload.Graph, root *Node) *Node {
			root.Children[0].Loops = append(root.Children[0].Loops, T("zz", 1))
			return root
		}},
		{"leaf with children", RuleLeafChildren, func(g *workload.Graph, root *Node) *Node {
			leaf := root.Children[0].Children[0]
			leaf.Children = []*Node{Leaf("extra", g.Op("B"))}
			return root
		}},
		{"dup op", RuleDupOp, func(g *workload.Graph, root *Node) *Node {
			root.Children[1].Children = append(root.Children[1].Children, Leaf("again", g.Op("B")))
			return root
		}},
		{"interior empty", RuleInteriorEmpty, func(g *workload.Graph, root *Node) *Node {
			root.Children[1].Children = nil
			root.Children[1].Op = nil
			return root
		}},
		{"level inversion", RuleLevelOrder, func(g *workload.Graph, root *Node) *Node {
			root.Children[0].Level = 3
			return root
		}},
		{"level out of range", RuleLevelRange, func(g *workload.Graph, root *Node) *Node {
			root.Level = 99
			return root
		}},
		{"op missing leaf", RuleOpNoLeaf, func(g *workload.Graph, root *Node) *Node {
			// Drop the C-leaf subtree and move its dims nowhere: operator C
			// then has no leaf tile.
			return Tile(root.Name, root.Level, root.Binding, root.Loops, root.Children[0])
		}},
	}
}

func TestStaticMatchesPipeline(t *testing.T) {
	for _, m := range staticMutations() {
		t.Run(m.name, func(t *testing.T) {
			g := sec42Graph(32, 64, 64, 32)
			root := m.mut(g, sec42Tree(g))
			spec := arch.Cloud()
			opts := Options{}

			want := pipelineErr(root, g, spec, opts)
			if want == nil {
				t.Fatal("mutation did not break the mapping")
			}
			vs := AnalyzeStatic(root, g, spec, opts)
			if len(vs) == 0 {
				t.Fatalf("false clean: pipeline says %v", want)
			}
			if vs[0].Err.Error() != want.Error() {
				t.Errorf("first violation = %q, pipeline = %q", vs[0].Err, want)
			}
			found := false
			for _, v := range vs {
				if v.Rule == m.rule {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation in %v", m.rule, vs)
			}
			// QuickReject covers every non-capacity rule with the same error.
			if err := QuickReject(root, g, spec, opts); err == nil {
				t.Error("QuickReject passed a broken mapping")
			} else if err.Error() != want.Error() {
				t.Errorf("QuickReject = %q, pipeline = %q", err, want)
			}
			// Sentinel classification matches.
			if errors.Is(want, ErrInvalidMapping) != isMark(vs[0].Err, ErrInvalidMapping) {
				t.Error("sentinel class mismatch")
			}
		})
	}
}

func TestStaticCleanOnValid(t *testing.T) {
	g := sec42Graph(32, 64, 64, 32)
	root := sec42Tree(g)
	spec := arch.Cloud()
	if err := pipelineErr(root, g, spec, Options{}); err != nil {
		t.Fatalf("baseline not valid: %v", err)
	}
	if vs := AnalyzeStatic(root, g, spec, Options{}); len(vs) != 0 {
		t.Fatalf("violations on a valid mapping: %v", vs)
	}
	if err := QuickReject(root, g, spec, Options{}); err != nil {
		t.Fatalf("QuickReject on a valid mapping: %v", err)
	}
}

// TestStaticResourceRules exercises the PE, instance and capacity rules on
// mappings that are structurally legal but over budget, checking exact
// agreement with the evaluator including Options gating.
func TestStaticResourceRules(t *testing.T) {
	spec := arch.Edge() // small machine (4096 PEs): easy to exceed
	g := sec42Graph(8192, 64, 64, 32)
	mk := func() *Node {
		opA, opB, opC := g.Op("A"), g.Op("B"), g.Op("C")
		t00 := Leaf("T0_0", opA, S("i", 8192), T("l", 64), T("k", 32))
		t10 := Leaf("T1_0", opB, S("i", 8192), T("l", 64))
		t20 := Leaf("T2_0", opC, S("i", 8192), T("j", 64), T("l", 64))
		t01 := Tile("T0_1", 1, Pipe, nil, t00, t10)
		t11 := Tile("T1_1", 1, Seq, nil, t20)
		return Tile("T0_2", 2, Shar, nil, t01, t11)
	}
	root := mk()

	want := pipelineErr(root, g, spec, Options{})
	if !errors.Is(want, ErrInfeasible) {
		t.Fatalf("want infeasible, got %v", want)
	}
	vs := AnalyzeStatic(root, g, spec, Options{})
	if len(vs) == 0 || vs[0].Err.Error() != want.Error() {
		t.Fatalf("static = %v, pipeline = %v", vs, want)
	}
	if !vs[0].Infeasible() {
		t.Error("resource violation not classified infeasible")
	}
	if err := QuickReject(root, g, spec, Options{}); err == nil || err.Error() != want.Error() {
		t.Errorf("QuickReject = %v, pipeline = %v", err, want)
	}

	// With the PE check off, the pipeline's next complaint (if any) must
	// again match the static pass under the same options.
	optsNoPE := Options{SkipPECheck: true}
	wantNoPE := pipelineErr(root, g, spec, optsNoPE)
	vsNoPE := AnalyzeStatic(root, g, spec, optsNoPE)
	if (wantNoPE == nil) != (len(vsNoPE) == 0) {
		t.Fatalf("skip-PE disagreement: pipeline=%v static=%v", wantNoPE, vsNoPE)
	}
	if wantNoPE != nil && vsNoPE[0].Err.Error() != wantNoPE.Error() {
		t.Errorf("skip-PE first violation = %q, pipeline = %q", vsNoPE[0].Err, wantNoPE)
	}

	// Capacity: a mapping inside the PE budget whose staged slices overflow
	// the L1 scratchpad — whole 1024×1024 tensors staged under one L1 tile
	// exceed Edge's 2M-word L1.
	g2 := sec42Graph(1024, 1024, 1024, 1024)
	opA, opB, opC := g2.Op("A"), g2.Op("B"), g2.Op("C")
	t00 := Leaf("c0", opA, T("i", 1024), T("l", 1024), T("k", 1024))
	t10 := Leaf("c1", opB, T("i", 1024), T("l", 1024))
	t20 := Leaf("c2", opC, T("i", 1024), T("j", 1024), T("l", 1024))
	t01 := Tile("c01", 1, Seq, nil, t00, t10, t20)
	capRoot := Tile("croot", 2, Seq, nil, t01)

	wantCap := pipelineErr(capRoot, g2, spec, Options{})
	if !IsOOM(wantCap) {
		t.Fatalf("want capacity error, got %v", wantCap)
	}
	vsCap := AnalyzeStatic(capRoot, g2, spec, Options{})
	if len(vsCap) == 0 || vsCap[0].Rule != RuleCapacity || vsCap[0].Err.Error() != wantCap.Error() {
		t.Fatalf("capacity static = %v, pipeline = %v", vsCap, wantCap)
	}
	// QuickReject deliberately skips the capacity rule.
	if err := QuickReject(capRoot, g2, spec, Options{}); err != nil {
		t.Errorf("QuickReject must skip capacity, got %v", err)
	}
	// And with the capacity check off, the point is fully valid both ways.
	if err := pipelineErr(capRoot, g2, spec, Options{SkipCapacityCheck: true}); err != nil {
		t.Fatalf("skip-capacity pipeline: %v", err)
	}
	if vs := AnalyzeStatic(capRoot, g2, spec, Options{SkipCapacityCheck: true}); len(vs) != 0 {
		t.Errorf("skip-capacity static violations: %v", vs)
	}
}

// TestStaticCollectsAll: one mapping with several independent problems
// yields one violation per problem in a single pass.
func TestStaticCollectsAll(t *testing.T) {
	g := sec42Graph(32, 64, 64, 32)
	root := sec42Tree(g)
	root.Loops[0].Extent = 0                                            // loop-extent + coverage (i)
	root.Children[1].Loops = append(root.Children[1].Loops, T("zz", 3)) // loop-dim
	vs := AnalyzeStatic(root, g, arch.Cloud(), Options{})
	got := map[string]int{}
	for _, v := range vs {
		got[v.Rule]++
	}
	if got[RuleLoopExtent] != 1 || got[RuleLoopDim] != 1 || got[RuleCoverage] == 0 {
		t.Fatalf("rules collected = %v (violations %v)", got, vs)
	}
}

// TestStaticAllocatesNoProgram pins the no-Program promise via the compile
// counter.
func TestStaticAllocatesNoProgram(t *testing.T) {
	g := sec42Graph(32, 64, 64, 32)
	root := sec42Tree(g)
	g2 := sec42Graph(32, 64, 64, 32)
	broken2 := sec42Tree(g2)
	broken2.Loops[0].Extent = 7

	before := CompileCount()
	_ = AnalyzeStatic(root, g, arch.Cloud(), Options{})
	_ = AnalyzeStatic(broken2, g2, arch.Cloud(), Options{})
	_ = QuickReject(root, g, arch.Cloud(), Options{})
	_ = QuickReject(broken2, g2, arch.Cloud(), Options{})
	if after := CompileCount(); after != before {
		t.Fatalf("static pass compiled %d Programs", after-before)
	}
}
