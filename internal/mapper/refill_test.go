package mapper

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// refillProbe forwards a template's Build and Refill and records how the
// search uses them.
type refillProbe struct {
	dataflows.Dataflow
	builds, refills int
	// first is the first tree Build returned, the one the search compiles;
	// dst is the tree every Refill targets.
	first, dst *core.Node
	// mismatch makes the first Refill change the tree's structure.
	mismatch bool
	t        *testing.T
}

func (p *refillProbe) StructureStable() bool { return true }

func (p *refillProbe) Build(f map[string]int) (*core.Node, error) {
	p.builds++
	root, err := p.Dataflow.Build(f)
	if err == nil && p.first == nil {
		p.first = root
	}
	return root, err
}

func (p *refillProbe) Refill(dst *core.Node, f map[string]int) error {
	p.refills++
	if dst == p.first {
		p.t.Fatal("the search refilled the tree it compiled")
	}
	if p.dst != nil && dst != p.dst {
		p.t.Fatal("the search refilled more than one tree")
	}
	p.dst = dst
	if err := p.Dataflow.(dataflows.Refiller).Refill(dst, f); err != nil {
		return err
	}
	if p.mismatch && p.refills == 1 {
		dst.Children[0].Binding = core.Pipe
	}
	return nil
}

// hideRefill exposes only Build and StructureStable, so the search builds
// a new tree per candidate.
type hideRefill struct{ dataflows.Dataflow }

func (hideRefill) StructureStable() bool { return true }

// TestTileSearchRefillMatchesBuild: on every catalog template whose
// defaults evaluate, a search that refills one tree visits the same
// candidates and returns the same best evaluation as one that builds a new
// tree per candidate. The refill search builds the compiled tree and its
// own refill tree, plus any candidates rejected before the latter exists.
func TestTileSearchRefillMatchesBuild(t *testing.T) {
	const rounds = 60
	seed := int64(0)
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		for _, df := range catalogTemplates(spec) {
			if !defaultsEvaluate(df, spec) {
				continue
			}
			seed++
			name := spec.Name + " " + df.Name() + " " + df.Graph().Name
			probe := &refillProbe{Dataflow: df, t: t}
			got, gotTrace := (&TileSearch{Dataflow: probe, Spec: spec, Rounds: rounds, Seed: seed}).Run()
			want, wantTrace := (&TileSearch{Dataflow: hideRefill{df}, Spec: spec, Rounds: rounds, Seed: seed}).Run()
			if got == nil || want == nil {
				t.Fatalf("%s: best %v with refills, %v without", name, got, want)
			}
			if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Factors, want.Factors) ||
				!reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("%s: refilling search diverges: best %v %v, want %v %v", name, got.Cycles, got.Factors, want.Cycles, want.Factors)
			}
			if probe.builds+probe.refills != rounds+1 || probe.refills == 0 {
				t.Fatalf("%s: %d builds and %d refills over %d candidates", name, probe.builds, probe.refills, rounds+1)
			}
		}
	}
}

// TestTileSearchRefillStopsOnMismatch: once a refilled tree fails the
// re-bind with a structure mismatch, the search compiles that tree and
// builds a new tree per candidate from then on.
func TestTileSearchRefillStopsOnMismatch(t *testing.T) {
	shape, _ := workload.AttentionShapeByName("Bert-S")
	spec := arch.Edge()
	probe := &refillProbe{Dataflow: dataflows.FLATRGran(shape, spec), mismatch: true, t: t}
	best, _ := (&TileSearch{Dataflow: probe, Spec: spec, Rounds: 40, Seed: 3}).Run()
	if best == nil {
		t.Fatal("no valid mapping")
	}
	if probe.refills != 1 || probe.builds != 40 {
		t.Fatalf("%d refills and %d builds, want 1 and 40", probe.refills, probe.builds)
	}
}
