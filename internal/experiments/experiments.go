// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 7). Each experiment has a driver returning a structured
// result with a Render method that prints the rows/series the paper
// reports. The cmd/tileflow-exp binary runs them; bench_test.go wraps each
// in a testing.B benchmark.
//
// Absolute numbers are not expected to match the paper (the substrate here
// is a from-scratch model and a software simulator, not the authors'
// testbed); the shapes — who wins, by what factor, where crossovers fall —
// are the reproduction target. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// Config tunes experiment cost. The defaults regenerate every figure on a
// laptop in minutes; Quick mode trims shape lists for tests.
type Config struct {
	// Rounds is the MCTS budget per dataflow tuning (default 200).
	Rounds int
	// Seed fixes all random streams.
	Seed int64
	// Quick trims the workload lists to a representative subset.
	Quick bool
}

func (c Config) rounds() int {
	if c.Rounds > 0 {
		return c.Rounds
	}
	if c.Quick {
		return 80
	}
	return 200
}

// attentionShapes returns the Table 2 list (trimmed in Quick mode).
func (c Config) attentionShapes() []workload.AttentionShape {
	if c.Quick {
		var out []workload.AttentionShape
		for _, n := range []string{"Bert-S", "ViT/16-B", "T5"} {
			s, _ := workload.AttentionShapeByName(n)
			out = append(out, s)
		}
		return out
	}
	return workload.AttentionShapes
}

// convShapes returns the Table 3 list (trimmed in Quick mode).
func (c Config) convShapes() []workload.ConvChainShape {
	if c.Quick {
		return workload.ConvChainShapes[:2]
	}
	return workload.ConvChainShapes
}

// AttentionDataflowNames is the Table 5 comparison set for Figs 10/11: the
// attention catalog without FLAT-MGran and FLAT-BGran.
var AttentionDataflowNames = []string{
	"Layerwise", "Uni-pipe", "FLAT-HGran", "FLAT-RGran", "Chimera", "TileFlow",
}

// ConvDataflowNames is the Fig 12 comparison set: the whole conv catalog.
var ConvDataflowNames = dataflows.ConvCatalog.Names()

// tune MCTS-tunes a dataflow's tiling (Sec 7.3: "To ensure a fair
// comparison among different dataflows, we utilize TileFlow's mapper to
// determine the tiling factors for all the different dataflows").
func (c Config) tune(df dataflows.Dataflow, spec *arch.Spec, opts core.Options) *mapper.Evaluation {
	return mapper.Tune(df, spec, opts, c.rounds(), c.Seed+int64(hash(df.Name()+df.Graph().Name)))
}

func hash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// table is a small aligned-text table builder shared by the Render methods.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) rowf(format string, args ...any) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), "|"))
}

func (t *table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// geomean computes the geometric mean of positive values (in log space to
// avoid overflow across long lists).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// sortedKeys returns a map's keys sorted, for deterministic rendering.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
