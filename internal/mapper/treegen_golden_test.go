package mapper

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/notation"
	"repro/internal/workload"
)

// buildGoldenPath pins GeneratedDataflow.Build: every tree (or error) the
// GA's candidate builder produces over a seeded sweep of encodings and
// factor maps. Regenerate with TILEFLOW_UPDATE_GOLDEN=1 only for a change
// that is meant to alter generated trees.
const buildGoldenPath = "testdata/generated_build.golden"

// goldenGraphs are the workload families the generator knows: attention
// (Table 2) and convolution chains (Table 3 plus a deeper chain with more
// fusion targets).
func goldenGraphs() []*workload.Graph {
	bert, _ := workload.AttentionShapeByName("Bert-S")
	cc1, _ := workload.ConvChainShapeByName("CC1")
	return []*workload.Graph{
		workload.Attention(bert),
		workload.ConvChain(cc1),
		workload.ConvChainN("conv4", 28, 28, 3, []int{32, 64, 48, 64, 16}),
	}
}

// goldenEncodings returns the layerwise encoding, everything fused into the
// last op under Para and under Pipe, and seeded random encodings, all
// repaired for spec.
func goldenEncodings(g *workload.Graph, spec *arch.Spec, rng *rand.Rand) []*Encoding {
	n := len(g.Ops)
	maxMem := spec.NumLevels() - 2
	fused := func(b core.Binding) *Encoding {
		e := LayerwiseEncoding(n)
		for i := 0; i < n-1; i++ {
			e.Target[i], e.Mem[i], e.Binding[i] = i+1, maxMem, b
		}
		return e
	}
	encs := []*Encoding{LayerwiseEncoding(n), fused(core.Para), fused(core.Pipe)}
	s := &TreeSearch{G: g, Spec: spec}
	for i := 0; i < 3; i++ {
		e := s.randomEncoding(rng)
		s.mutate(e, rng)
		encs = append(encs, e)
	}
	for _, e := range encs {
		e.Repair(spec.NumLevels())
	}
	return encs
}

// goldenFactorMaps returns the default factors, two maps of divisors that
// nest along every dimension (so most build), one of independent random
// divisors, one of arbitrary (mostly non-dividing) level factors, and maps
// with a non-dividing core and sub-core split.
func goldenFactorMaps(gd *GeneratedDataflow, rng *rand.Rand) []map[string]int {
	specs := gd.Factors()
	divisors := func(n int) []int {
		var ds []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				ds = append(ds, d)
			}
		}
		return ds
	}
	dimOf := func(key string) string {
		switch key {
		case "sp_c":
			return gd.SpatialDim
		case "sp_s":
			return gd.SubDim
		}
		return key[strings.IndexByte(key, '_')+1:]
	}
	const (
		nested = iota
		independent
		arbitrary
	)
	random := func(mode int) map[string]int {
		f := map[string]int{}
		rem := map[string]int{}
		for _, fs := range specs {
			if rng.Intn(3) == 0 {
				continue // absent key: the builder's unit default
			}
			switch mode {
			case nested:
				dim := dimOf(fs.Key)
				if _, ok := rem[dim]; !ok {
					rem[dim] = fs.Total
				}
				ds := divisors(rem[dim])
				f[fs.Key] = ds[rng.Intn(len(ds))]
				rem[dim] /= f[fs.Key]
			case independent:
				ds := divisors(fs.Total)
				f[fs.Key] = ds[rng.Intn(len(ds))]
			default:
				f[fs.Key] = 1 + rng.Intn(8)
			}
		}
		return f
	}
	badSplit := func(key, dim string) map[string]int {
		f := gd.DefaultFactors()
		n := gd.G.DimSize(dim)
		for v := 2; v <= n+1; v++ {
			if n%v != 0 {
				f[key] = v
				break
			}
		}
		return f
	}
	return []map[string]int{
		gd.DefaultFactors(),
		random(nested),
		random(nested),
		random(independent),
		random(arbitrary),
		badSplit("sp_c", gd.SpatialDim),
		badSplit("sp_s", gd.SubDim),
	}
}

func formatFactors(f map[string]int) string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, f[k])
	}
	return strings.Join(parts, " ")
}

// renderBuildGolden builds every golden case and renders the trees in the
// notation, or the error text.
func renderBuildGolden() string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(13))
	for _, g := range goldenGraphs() {
		for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
			for _, enc := range goldenEncodings(g, spec, rng) {
				gd := NewGeneratedDataflow("golden", g, spec, enc)
				for _, f := range goldenFactorMaps(gd, rng) {
					fmt.Fprintf(&b, "== %s %s | %s | %s\n", g.Name, spec.Name, enc, formatFactors(f))
					root, err := gd.Build(f)
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n", err)
						continue
					}
					b.WriteString(notation.Print(root))
				}
			}
		}
	}
	return b.String()
}

// TestGeneratedBuildGolden: Build's trees and errors stay byte-identical
// to the committed golden.
func TestGeneratedBuildGolden(t *testing.T) {
	got := renderBuildGolden()
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(buildGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(buildGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(buildGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("Build output diverges from %s at line %d:\ngot  %s\nwant %s", buildGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("Build output has %d lines, %s has %d", len(gl), buildGoldenPath, len(wl))
}

// referenceFactors is the formula Factors must keep: one "L<level>_<dim>"
// key per on-chip level (outermost first) per graph dimension longer than
// one, then the core and sub-core spatial splits.
func referenceFactors(d *GeneratedDataflow) []dataflows.FactorSpec {
	var fs []dataflows.FactorSpec
	maxMem := d.Spec.NumLevels() - 2
	for l := maxMem; l >= 1; l-- {
		for _, dim := range d.G.AllDims() {
			if dim.Size <= 1 {
				continue
			}
			fs = append(fs, dataflows.FactorSpec{
				Key:   fmt.Sprintf("L%d_%s", l, dim.Name),
				Total: dim.Size,
				Doc:   fmt.Sprintf("temporal tiles of %s at level %d nodes", dim.Name, l),
			})
		}
	}
	if n := d.G.DimSize(d.SpatialDim); n > 1 {
		fs = append(fs, dataflows.FactorSpec{Key: "sp_c", Total: n, Doc: "spatial split across cores"})
	}
	if d.Spec.NumLevels() >= 4 {
		if n := d.G.DimSize(d.SubDim); n > 1 {
			fs = append(fs, dataflows.FactorSpec{Key: "sp_s", Total: n, Doc: "spatial split across sub-cores"})
		}
	}
	return fs
}

// TestGeneratedFactorsMatchReference: Factors lists the same keys, totals
// and docs, in the same order, as referenceFactors for every golden graph,
// spec and encoding, and for an encoding whose length does not match the
// graph (Build rejects it, but the search still asks for its factors).
func TestGeneratedFactorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, g := range goldenGraphs() {
		for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
			encs := append(goldenEncodings(g, spec, rng), LayerwiseEncoding(len(g.Ops)+1))
			for _, enc := range encs {
				gd := NewGeneratedDataflow("golden", g, spec, enc)
				got, want := gd.Factors(), referenceFactors(gd)
				if len(got) != len(want) {
					t.Fatalf("%s %s %s: %d factors, want %d", g.Name, spec.Name, enc, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s %s: factor %d is %+v, want %+v", g.Name, spec.Name, enc, i, got[i], want[i])
					}
				}
			}
		}
	}
}
