package mapper

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/workload"
)

// TestNotationRoundTrip: every tree the catalog and the GA build prints to
// notation that parses back to a tree which prints identically and
// evaluates to the same result. Generated tile names carry "@L" themselves
// (Layerwise's "QK@L1", GA's "op@L<k>"), which is what a server client
// posting a search result back to /v1/evaluate depends on. The cases are
// every Table 5 template over every Table 2/3 shape, and the layerwise,
// all-Para, all-Pipe and seeded random GA encodings, on Edge and Cloud.
func TestNotationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := 0
	check := func(label string, root *core.Node, g *workload.Graph, spec *arch.Spec) {
		t.Helper()
		cases++
		printed := notation.Print(root)
		parsed, err := notation.Parse(printed, g)
		if err != nil {
			t.Errorf("%s: printed notation does not parse: %v\n%s", label, err, printed)
			return
		}
		if again := notation.Print(parsed); again != printed {
			t.Errorf("%s: print∘parse is not a fixpoint\nfirst:\n%s\nsecond:\n%s", label, printed, again)
		}
		want, werr := core.Evaluate(root, g, spec, core.Options{})
		got, gerr := core.Evaluate(parsed, g, spec, core.Options{})
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Errorf("%s: evaluation error %v after the round trip, want %v", label, gerr, werr)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-tripped tree evaluates to %v cycles, want %v", label, got.Cycles, want.Cycles)
		}
	}
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		for _, df := range catalogTemplates(spec) {
			root, err := df.Build(df.DefaultFactors())
			if err != nil {
				continue // some defaults do not fit Cloud's PE array; nothing to print
			}
			check(df.Name()+" "+df.Graph().Name+" "+spec.Name, root, df.Graph(), spec)
		}
		for _, g := range goldenGraphs() {
			for _, enc := range goldenEncodings(g, spec, rng) {
				gd := NewGeneratedDataflow("ga", g, spec, enc)
				root, err := gd.Build(gd.DefaultFactors())
				if err != nil {
					continue
				}
				check(g.Name+" "+spec.Name+" "+enc.String(), root, g, spec)
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d design points built", cases)
	}
	t.Logf("%d design points round-tripped", cases)
}
