package mapper

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// prescreenStream builds the benchmark candidate stream: clones of the
// canonical FLAT-RGran design point, three of every five mutated to be
// statically invalid (a doubled loop extent breaks tiling coverage) —
// modelling a mapper exploring a factor space where many points are
// illegal.
func prescreenStream(tb testing.TB, n int) ([]*core.Node, *workload.Graph, *arch.Spec) {
	tb.Helper()
	shape, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		tb.Fatal("attention shape Bert-S not found")
	}
	spec := arch.Edge()
	df := dataflows.FLATRGran(shape, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		tb.Fatal(err)
	}
	cands := make([]*core.Node, n)
	for i := range cands {
		c := root.Clone()
		if i%5 < 3 {
			breakCoverage(tb, c)
		}
		cands[i] = c
	}
	return cands, df.Graph(), spec
}

// breakCoverage doubles the first loop extent it finds, so the extents
// along that dim's path no longer multiply to the dim size.
func breakCoverage(tb testing.TB, root *core.Node) {
	tb.Helper()
	done := false
	root.Walk(func(n *core.Node) {
		if done {
			return
		}
		for i := range n.Loops {
			if n.Loops[i].Extent > 1 {
				n.Loops[i].Extent *= 2
				done = true
				return
			}
		}
	})
	if !done {
		tb.Fatal("no loop to break")
	}
}

// TestPrescreenAgreesWithPipeline: on the benchmark stream, QuickReject
// accepts exactly the candidates the full pipeline accepts and rejects with
// the identical error — so pruning on it cannot change search results.
func TestPrescreenAgreesWithPipeline(t *testing.T) {
	cands, g, spec := prescreenStream(t, 40)
	valid := 0
	for i, c := range cands {
		qerr := core.QuickReject(c, g, spec, core.Options{})
		_, perr := core.Evaluate(c, g, spec, core.Options{})
		if (qerr == nil) != (perr == nil) {
			t.Fatalf("candidate %d: QuickReject=%v pipeline=%v", i, qerr, perr)
		}
		if qerr != nil {
			if qerr.Error() != perr.Error() {
				t.Errorf("candidate %d: QuickReject %q, pipeline %q", i, qerr, perr)
			}
			if !errors.Is(perr, core.ErrInvalidMapping) {
				t.Errorf("candidate %d: broken clone rejected for the wrong reason: %v", i, perr)
			}
		} else {
			valid++
		}
	}
	if valid != 2*len(cands)/5 {
		t.Fatalf("stream has %d valid of %d, want two fifths", valid, len(cands))
	}
}

// TestPrescreenRejectAllocs pins what the pre-screen saves in counts: a
// statically invalid candidate costs QuickReject only its error (the
// violation record and the coverage error it carries, 2 allocations),
// where the full pipeline compiles a Program for it first (91).
// TestStaticAllocatesNoProgram (internal/core) pins that QuickReject
// compiles no Program.
func TestPrescreenRejectAllocs(t *testing.T) {
	cands, g, spec := prescreenStream(t, 1)
	bad := cands[0]
	allocs := minAllocs(func() {
		if core.QuickReject(bad, g, spec, core.Options{}) == nil {
			t.Fatal("candidate unexpectedly valid")
		}
	})
	if allocs > 2 {
		t.Errorf("QuickReject allocates %v objects rejecting a candidate, want <= 2 (its error)", allocs)
	}
}

// BenchmarkRejectPipeline and BenchmarkRejectPrescreen time one rejection
// on each path.
func BenchmarkRejectPipeline(b *testing.B) {
	cands, g, spec := prescreenStream(b, 5)
	bad := cands[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(bad, g, spec, core.Options{}); err == nil {
			b.Fatal("candidate unexpectedly valid")
		}
	}
}

func BenchmarkRejectPrescreen(b *testing.B) {
	cands, g, spec := prescreenStream(b, 5)
	bad := cands[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.QuickReject(bad, g, spec, core.Options{}); err == nil {
			b.Fatal("candidate unexpectedly valid")
		}
	}
}
