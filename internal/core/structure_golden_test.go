package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// structureGoldenPath pins Compile's tiling-independent tables (tensor
// groups, access references, invocation masks, Seq eviction, confinement,
// parent levels, attributed tensors) over every Table 5 template and a
// seeded sweep of GA encodings. Regenerate with TILEFLOW_UPDATE_GOLDEN=1
// only for a change that is meant to alter the structure analysis.
const structureGoldenPath = "testdata/compile_structure.golden"

// goldenTemplates lists every Table 5 dataflow over every Table 2
// (attention) and Table 3 (conv chain) shape for spec.
func goldenTemplates(spec *arch.Spec) []dataflows.Dataflow {
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

// goldenGAEncodings returns the layerwise encoding, everything fused into
// its consumer under Para and under Pipe, and seeded random encodings, all
// repaired for spec: the tree shapes the GA compiles.
func goldenGAEncodings(g *workload.Graph, spec *arch.Spec, rng *rand.Rand) []*mapper.Encoding {
	n := len(g.Ops)
	maxMem := spec.NumLevels() - 2
	fused := func(b core.Binding) *mapper.Encoding {
		e := mapper.LayerwiseEncoding(n)
		for i := 0; i < n-1; i++ {
			e.Target[i], e.Mem[i], e.Binding[i] = i+1, maxMem, b
		}
		return e
	}
	encs := []*mapper.Encoding{mapper.LayerwiseEncoding(n), fused(core.Para), fused(core.Pipe)}
	for k := 0; k < 4; k++ {
		e := mapper.LayerwiseEncoding(n)
		for i := 0; i < n-1; i++ {
			if rng.Intn(4) == 0 {
				continue
			}
			e.Target[i] = i + 1 + rng.Intn(n-1-i)
			e.Mem[i] = 1 + rng.Intn(maxMem)
			e.Binding[i] = core.Binding(rng.Intn(4))
		}
		encs = append(encs, e)
	}
	for _, e := range encs {
		e.Repair(spec.NumLevels())
	}
	return encs
}

// renderStructureGolden compiles every golden case at its default factors
// and dumps the structure tables, or the Compile error text.
func renderStructureGolden() string {
	var b strings.Builder
	compile := func(label string, df dataflows.Dataflow, spec *arch.Spec) {
		fmt.Fprintf(&b, "== %s\n", label)
		root, err := df.Build(df.DefaultFactors())
		if err != nil {
			fmt.Fprintf(&b, "build error: %v\n", err)
			return
		}
		p, err := core.Compile(root, df.Graph(), spec)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return
		}
		b.WriteString(core.DumpStructure(p))
	}
	specs := []*arch.Spec{arch.Edge(), arch.Cloud()}
	for _, spec := range specs {
		for _, df := range goldenTemplates(spec) {
			compile(fmt.Sprintf("%s %s %s", df.Name(), df.Graph().Name, spec.Name), df, spec)
		}
	}
	bert, _ := workload.AttentionShapeByName("Bert-S")
	cc1, _ := workload.ConvChainShapeByName("CC1")
	graphs := []*workload.Graph{
		workload.Attention(bert),
		workload.ConvChain(cc1),
		workload.ConvChainN("conv4", 28, 28, 3, []int{32, 64, 48, 64, 16}),
	}
	rng := rand.New(rand.NewSource(14))
	for _, g := range graphs {
		for _, spec := range specs {
			for _, enc := range goldenGAEncodings(g, spec, rng) {
				gd := mapper.NewGeneratedDataflow("ga", g, spec, enc)
				compile(fmt.Sprintf("GA %s %s %s", g.Name, spec.Name, enc), gd, spec)
			}
		}
	}
	return b.String()
}

// TestCompileStructureGolden: Compile's structure tables and errors stay
// byte-identical to the committed golden.
func TestCompileStructureGolden(t *testing.T) {
	got := renderStructureGolden()
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(structureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(structureGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(structureGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("structure tables diverge from %s at line %d:\ngot  %s\nwant %s", structureGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("structure dump has %d lines, %s has %d", len(gl), structureGoldenPath, len(wl))
}
