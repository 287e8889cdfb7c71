package conformance

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/notation"
)

// staticPointBudget keeps the static differential fast enough for tier-1:
// each point spawns five variants and each variant runs the full pipeline
// once plus the static pass three ways.
const staticPointBudget = 120

// mutateStatic builds invalid variants of a generated point's tree, each
// designed to trip a *positioned* rule once the tree round-trips through
// the notation printer: a doubled extent (coverage, anchored at the leaf
// name), a zeroed extent (rejected by the positioned parser), a foreign
// dim (anchored at the loop item), and a level inversion (anchored at the
// @L token).
func mutateStatic(p *Point) map[string]*core.Node {
	out := map[string]*core.Node{}

	doubled := p.Root.Clone()
	if mutateFirstLoop(doubled, func(l *core.Loop) { l.Extent *= 2 }) {
		out["doubled extent"] = doubled
	}
	zeroed := p.Root.Clone()
	if mutateFirstLoop(zeroed, func(l *core.Loop) { l.Extent = 0 }) {
		out["zero extent"] = zeroed
	}
	foreign := p.Root.Clone()
	foreign.Loops = append(foreign.Loops, core.Loop{Dim: "zzq", Extent: 2, Kind: core.Temporal})
	out["foreign dim"] = foreign

	// Only interior children carry an @L token in the notation; a leaf's
	// level would silently reset in the Print → Parse round-trip.
	inverted := p.Root.Clone()
	for _, c := range inverted.Children {
		if !c.IsLeaf() {
			c.Level = inverted.Level + 1
			out["level inversion"] = inverted
			break
		}
	}
	return out
}

func mutateFirstLoop(root *core.Node, f func(*core.Loop)) bool {
	done := false
	root.Walk(func(n *core.Node) {
		if done {
			return
		}
		for i := range n.Loops {
			if n.Loops[i].Extent > 1 {
				f(&n.Loops[i])
				done = true
				return
			}
		}
	})
	return done
}

// pipelineErr is the fail-fast Compile → Evaluate verdict on a tree.
func pipelineErr(p *Point, root *core.Node) error {
	prog, err := core.Compile(root, p.Graph, p.Spec)
	if err != nil {
		return err
	}
	_, err = prog.Evaluate(context.Background(), p.Opts)
	return err
}

// TestStaticDifferential is the vet acceptance harness: over the
// conformance generator's corpus (valid points plus targeted mutations),
// the static analyzer must flag every pipeline-rejected mapping with at
// least one coded, positioned diagnostic (no false clean), must stay
// silent on every accepted one (no false positive), and must do all of it
// without compiling a single Program.
func TestStaticDifferential(t *testing.T) {
	for seed := int64(1); seed <= staticPointBudget; seed++ {
		p := Generate(seed)
		variants := map[string]*core.Node{"original": p.Root}
		for name, root := range mutateStatic(p) {
			variants[name] = root
		}
		for name, root := range variants {
			if err := checkStaticVariant(p, root, name == "original"); err != nil {
				t.Fatalf("seed %d, variant %q: %v", seed, name, err)
			}
		}
		if err := checkDeltaVariants(p, variants); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// checkDeltaVariants runs the variants that keep the original's structure
// through one DeltaState, chained original → variant → original: each
// variant must fail with the cold pipeline's exact error, and each return
// must reproduce the original's cold result byte for byte.
func checkDeltaVariants(p *Point, variants map[string]*core.Node) error {
	prog, err := core.Compile(p.Root, p.Graph, p.Spec)
	if err != nil {
		return err
	}
	cold, err := prog.Evaluate(context.Background(), p.Opts)
	if err != nil {
		return err
	}
	want := resultBytes(cold, p.Spec)
	d := prog.NewDelta(p.Opts)
	if _, err := prog.EvaluateDelta(context.Background(), d, p.Root, p.Opts); err != nil {
		return fmt.Errorf("delta on the original: %v", err)
	}
	for _, name := range []string{"doubled extent", "zero extent", "foreign dim"} {
		root, ok := variants[name]
		if !ok {
			continue
		}
		perr := pipelineErr(p, root)
		_, derr := prog.EvaluateDelta(context.Background(), d, root, p.Opts)
		if perr == nil || derr == nil || derr.Error() != perr.Error() {
			return fmt.Errorf("delta on %q: %v, pipeline %v", name, derr, perr)
		}
		res, err := prog.EvaluateDelta(context.Background(), d, p.Root, p.Opts)
		if err != nil {
			return fmt.Errorf("delta back from %q: %v", name, err)
		}
		if got := resultBytes(res, p.Spec); !bytes.Equal(got, want) {
			return fmt.Errorf("delta back from %q: %v", name, diffBytes(want, got))
		}
	}
	return nil
}

func checkStaticVariant(p *Point, root *core.Node, expectValid bool) error {
	src := notation.Print(root)

	// The entire static side runs first, bracketed by the compile counter:
	// none of it may allocate a Program.
	before := core.CompileCount()
	vs := core.AnalyzeStatic(root, p.Graph, p.Spec, p.Opts)
	diags := check.AnalyzeSource(src, p.Graph, p.Spec, p.Opts)
	if after := core.CompileCount(); after != before {
		return fmt.Errorf("static pass compiled %d Programs", after-before)
	}

	perr := pipelineErr(p, root)
	if expectValid && perr != nil {
		return fmt.Errorf("generated point not valid: %w", perr)
	}

	if perr == nil {
		if len(vs) != 0 {
			return fmt.Errorf("false positive: AnalyzeStatic says %v, pipeline accepts", vs)
		}
		if diags.HasErrors() {
			return fmt.Errorf("false positive: vet errors on an accepted point:\n%s", diags)
		}
		return nil
	}

	// No false clean, with the exact pipeline error first.
	if len(vs) == 0 {
		return fmt.Errorf("false clean: pipeline rejects with %v, AnalyzeStatic finds nothing", perr)
	}
	if vs[0].Err.Error() != perr.Error() {
		return fmt.Errorf("first violation %q, pipeline %q", vs[0].Err, perr)
	}
	// The vet view: at least one coded, positioned error diagnostic.
	if !diags.HasErrors() {
		return fmt.Errorf("false clean: vet has no errors for pipeline rejection %v", perr)
	}
	positioned := false
	for _, d := range diags {
		if d.Severity != diag.Error {
			continue
		}
		if d.Code == "" {
			return fmt.Errorf("uncoded error diagnostic: %s", d)
		}
		if !d.Span.IsZero() {
			positioned = true
		}
	}
	if !positioned {
		return fmt.Errorf("no positioned error diagnostic for %v in:\n%s", perr, diags)
	}
	return nil
}
