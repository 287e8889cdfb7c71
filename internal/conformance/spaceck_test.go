package conformance

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/spaceck"
)

// TestSpaceckSoundness is the space-analysis backstop behind the mapper's
// narrowed search domains (TestSpaceckNarrowingCounts): across hundreds of
// seeded design points, every factor assignment the real Compile/Evaluate
// pipeline accepts must lie inside the narrowed domains spaceck.Analyze
// reports (zero false prunes). Soundness is absolute; completeness (how much gets pruned) is best-effort and not
// asserted here beyond counting complete sweeps.
func TestSpaceckSoundness(t *testing.T) {
	const (
		seeds          = 50
		probeBudget    = 1500
		samplesPerSeed = 10
	)
	var checked, accepted, complete, retiled int
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed)
		df, err := spaceck.Retile("conf", p.Root, p.Graph)
		if err != nil {
			// The generator can emit trees outside the retiling adapter's
			// domain; those points simply don't contribute.
			continue
		}
		retiled++
		rep := spaceck.Analyze(df, p.Spec, spaceck.Options{
			MaxProbes: probeBudget,
			Core:      p.Opts,
		})
		if rep.Complete {
			complete++
		}
		// The default assignment reproduces the generated tree, which is
		// valid by construction — it must never be pruned.
		for _, f := range sampleAssignments(seed, df, samplesPerSeed) {
			checked++
			root, err := df.Build(f)
			if err != nil {
				continue
			}
			if _, err := core.EvaluateContext(context.Background(), root, p.Graph, p.Spec, p.Opts); err != nil {
				continue
			}
			accepted++
			if !rep.Contains(f) {
				t.Errorf("seed %d: false prune: pipeline accepts %v but the report excludes it (complete=%v)",
					seed, f, rep.Complete)
			}
		}
	}
	if retiled < seeds/2 {
		t.Fatalf("only %d of %d generated points retiled; the gate lost its coverage", retiled, seeds)
	}
	if checked < 500 {
		t.Fatalf("only %d assignments checked, want >= 500", checked)
	}
	if accepted == 0 {
		t.Fatal("no sampled assignment was pipeline-accepted; the gate is vacuous")
	}
	if complete == 0 {
		t.Fatal("no analysis completed its sweep; raise the probe budget")
	}
	t.Logf("retiled %d/%d points, %d complete sweeps, %d/%d sampled assignments accepted",
		retiled, seeds, complete, accepted, checked)
}

// sampleAssignments draws deterministic factor assignments for one seed:
// the template's defaults first (always valid by construction), then random
// picks across every factor's divisor choices.
func sampleAssignments(seed int64, df dataflows.Dataflow, n int) []map[string]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5bacec))
	out := []map[string]int{df.DefaultFactors()}
	specs := df.Factors()
	for i := 1; i < n; i++ {
		f := make(map[string]int, len(specs))
		for _, s := range specs {
			cs := s.Choices()
			f[s.Key] = cs[rng.Intn(len(cs))]
		}
		out = append(out, f)
	}
	return out
}
