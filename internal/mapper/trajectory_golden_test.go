package mapper

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/spaceck"
	"repro/internal/workload"
)

// trajectoryGoldenPath pins the MCTS and GA search trajectories: per
// search, the best point found and a digest of every candidate built, in
// order, plus the best-so-far trace. Regenerate with
// TILEFLOW_UPDATE_GOLDEN=1 only for a change that is meant to alter which
// candidates a search visits.
const trajectoryGoldenPath = "testdata/tilesearch_trajectory.golden"

// catalogTemplates lists every Table 5 dataflow over every Table 2
// (attention) and Table 3 (conv chain) shape for spec.
func catalogTemplates(spec *arch.Spec) []dataflows.Dataflow {
	var out []dataflows.Dataflow
	for _, s := range workload.AttentionShapes {
		out = append(out,
			dataflows.LayerwiseAttention(s, spec),
			dataflows.UniPipe(s, spec),
			dataflows.FLATMGran(s, spec),
			dataflows.FLATBGran(s, spec),
			dataflows.FLATHGran(s, spec),
			dataflows.FLATRGran(s, spec),
			dataflows.Chimera(s, spec),
			dataflows.TileFlowAttention(s, spec),
		)
	}
	for _, s := range workload.ConvChainShapes {
		out = append(out,
			dataflows.LayerwiseConv(s, spec),
			dataflows.FusedLayer(s, spec),
			dataflows.ISOS(s, spec),
			dataflows.TileFlowConv(s, spec),
		)
	}
	return out
}

// defaultsEvaluate reports whether the template's default mapping
// evaluates, the catalog filter of the tune benchmark.
func defaultsEvaluate(df dataflows.Dataflow, spec *arch.Spec) bool {
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		return false
	}
	_, err = core.Evaluate(root, df.Graph(), spec, core.Options{})
	return err == nil
}

// formatCycles renders a cycle count exactly.
func formatCycles(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// trajectoryLine renders one search: its best point and a SHA-256 over the
// ordered Build factor maps and the best-so-far trace.
func trajectoryLine(label string, best *Evaluation, built []map[string]int, trace []float64) string {
	h := sha256.New()
	for _, f := range built {
		fmt.Fprintf(h, "build %s\n", formatFactors(f))
	}
	for _, c := range trace {
		fmt.Fprintf(h, "trace %s\n", formatCycles(c))
	}
	bestText := "none"
	if best != nil {
		bestText = formatCycles(best.Cycles) + " | " + formatFactors(best.Factors)
	}
	return fmt.Sprintf("%s | best %s | sha256 %x\n", label, bestText, h.Sum(nil))
}

// narrowedDomains keeps every other value of the first two factors'
// choice lists. The narrowing need not be sound: it shrinks the root's
// choice list, which sets how many rounds expand a fresh root child
// before selection first reads a reward.
func narrowedDomains(df dataflows.Dataflow) map[string][]int {
	doms := map[string][]int{}
	for i, f := range df.Factors() {
		if i == 2 {
			break
		}
		var keep []int
		for j, v := range f.Choices() {
			if j%2 == 0 {
				keep = append(keep, v)
			}
		}
		doms[f.Key] = keep
	}
	return doms
}

// renderTrajectoryGolden runs every golden search and renders one line per
// search.
func renderTrajectoryGolden() string {
	var b strings.Builder
	tile := func(label string, df dataflows.Dataflow, spec *arch.Spec, rounds int, seed int64, domains map[string][]int) {
		rec := &recordingDataflow{Dataflow: df}
		s := &TileSearch{Dataflow: rec, Spec: spec, Rounds: rounds, Seed: seed, Domains: domains}
		best, trace := s.Run()
		b.WriteString(trajectoryLine(fmt.Sprintf("%s %s rounds=%d seed=%d", label, spec.Name, rounds, seed), best, rec.built, trace))
	}
	specs := []*arch.Spec{arch.Edge(), arch.Cloud()}

	// Every catalog template whose defaults evaluate, at the paper's
	// 200-round budget.
	seed := int64(0)
	for _, spec := range specs {
		for _, df := range catalogTemplates(spec) {
			if !defaultsEvaluate(df, spec) {
				continue
			}
			seed++
			tile(fmt.Sprintf("catalog %s %s", df.Name(), df.Graph().Name), df, spec, 200, seed, nil)
		}
	}

	// GA candidates at the explore budget (12 rounds) and the GA default
	// (40 rounds).
	rng := rand.New(rand.NewSource(16))
	for _, g := range goldenGraphs() {
		for _, spec := range specs {
			for _, enc := range goldenEncodings(g, spec, rng) {
				gd := NewGeneratedDataflow("ga", g, spec, enc)
				for _, rounds := range []int{12, 40} {
					seed++
					tile(fmt.Sprintf("ga %s %s", g.Name, enc), gd, spec, rounds, seed, nil)
				}
			}
		}
	}

	// Domains-narrowed searches: narrowing sets the root's choice count.
	bert, _ := workload.AttentionShapeByName("Bert-S")
	cc1, _ := workload.ConvChainShapeByName("CC1")
	for _, spec := range specs {
		for _, df := range []dataflows.Dataflow{
			dataflows.FLATRGran(bert, spec),
			dataflows.TileFlowConv(cc1, spec),
		} {
			seed++
			tile(fmt.Sprintf("narrowed %s %s", df.Name(), df.Graph().Name), df, spec, 200, seed, narrowedDomains(df))
		}
	}
	df := dataflows.TileFlowAttention(bert, arch.Edge())
	doms := spaceck.Analyze(df, arch.Edge(), spaceck.Options{MaxProbes: 2000}).AllowedMap()
	seed++
	tile(fmt.Sprintf("spaceck %s %s", df.Name(), df.Graph().Name), df, arch.Edge(), 200, seed, doms)

	// Whole GA runs at the explore budget: 8 individuals × 4 generations ×
	// 12 MCTS rounds.
	for i, run := range []struct {
		g    *workload.Graph
		spec *arch.Spec
	}{
		{workload.Attention(bert), arch.Edge()},
		{workload.ConvChain(cc1), arch.Cloud()},
		{goldenGraphs()[2], arch.Edge()},
	} {
		s := &TreeSearch{G: run.g, Spec: run.spec, Population: 8, Generations: 4, TileRounds: 12,
			Parallel: 1, Seed: int64(1600 + i)}
		r := s.Run()
		label := fmt.Sprintf("tree %s %s 8x4x12 seed=%d", run.g.Name, run.spec.Name, s.Seed)
		if r.Encoding != nil {
			label += " | " + r.Encoding.String()
		}
		b.WriteString(trajectoryLine(label, r.Best, nil, r.Trace))
	}

	// Searches first recorded with a per-candidate compile: catalog
	// templates, and the narrow template, plain and with narrowed domains.
	seed = 2400
	for _, spec := range specs {
		for _, shape := range []string{"Bert-S", "ViT/16-B"} {
			sh, _ := workload.AttentionShapeByName(shape)
			for _, df := range []dataflows.Dataflow{
				dataflows.FLATRGran(sh, spec),
				dataflows.TileFlowAttention(sh, spec),
				dataflows.Chimera(sh, spec),
			} {
				seed++
				tile(fmt.Sprintf("cold catalog %s %s", df.Name(), df.Graph().Name), df, spec, 120, seed, nil)
			}
		}
	}
	rgran := dataflows.FLATRGran(bert, arch.Cloud())
	seed++
	tile(fmt.Sprintf("cold narrowed %s %s", rgran.Name(), rgran.Graph().Name), rgran, arch.Cloud(), 120, seed, narrowedDomains(rgran))
	nt := &narrowTemplate{g: narrowGraph(64, 8), i: 64}
	for i := 0; i < 4; i++ {
		seed++
		tile(fmt.Sprintf("cold %s %s", nt.Name(), nt.Graph().Name), nt, narrowSpec(), 120, seed, nil)
	}
	seed++
	ntDoms := spaceck.Analyze(nt, narrowSpec(), spaceck.Options{}).AllowedMap()
	tile(fmt.Sprintf("cold spaceck %s %s", nt.Name(), nt.Graph().Name), nt, narrowSpec(), 120, seed, ntDoms)
	return b.String()
}

// TestTileSearchTrajectoryGolden: the searches visit the same candidates
// in the same order and return the same best points as the committed
// golden.
func TestTileSearchTrajectoryGolden(t *testing.T) {
	got := renderTrajectoryGolden()
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(trajectoryGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(trajectoryGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("search trajectories diverge from %s at line %d:\ngot  %s\nwant %s", trajectoryGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("trajectory dump has %d lines, %s has %d", len(gl), trajectoryGoldenPath, len(wl))
}
