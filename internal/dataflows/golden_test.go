package dataflows

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
	"repro/internal/workload"
)

// templateGoldenPath pins every Table 5 template's Build: one line per
// (template, shape, architecture, factor map) holding the rendered tree or
// the exact error text. Regenerate with TILEFLOW_UPDATE_GOLDEN=1 only for a
// change that is meant to alter the templates' trees.
const templateGoldenPath = "testdata/template_build.golden"

// goldenDraws is the number of seeded factor maps per template, after its
// defaults.
const goldenDraws = 8

// goldenTemplate is one Table 5 template on one shape and architecture,
// with the factor maps the golden builds it under.
type goldenTemplate struct {
	spec *arch.Spec
	df   Dataflow
	maps []map[string]int
}

// goldenTemplates lists every Table 5 template over every Table 2
// (attention) and Table 3 (conv chain) shape on Edge and Cloud. Each gets
// its defaults and goldenDraws seeded maps: per factor, the key is absent
// (the unit default), an arbitrary small value (often a non-divisor), or a
// random divisor of its total — independent divisors often over-divide a
// dimension once combined, so every kind of rejection shows up.
func goldenTemplates() []goldenTemplate {
	rng := rand.New(rand.NewSource(20))
	var out []goldenTemplate
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		var flows []Dataflow
		for _, s := range workload.AttentionShapes {
			flows = append(flows, attentionDataflows(s, spec)...)
		}
		for _, s := range workload.ConvChainShapes {
			flows = append(flows, convDataflows(s, spec)...)
		}
		for _, df := range flows {
			gt := goldenTemplate{spec: spec, df: df, maps: []map[string]int{df.DefaultFactors()}}
			for i := 0; i < goldenDraws; i++ {
				f := map[string]int{}
				for _, fs := range df.Factors() {
					switch k := rng.Intn(6); {
					case k == 0:
						// absent
					case k == 1:
						f[fs.Key] = rng.Intn(9)
					default:
						ch := fs.Choices()
						f[fs.Key] = ch[rng.Intn(len(ch))]
					}
				}
				gt.maps = append(gt.maps, f)
			}
			out = append(out, gt)
		}
	}
	return out
}

// formatFactors renders a factor map with sorted keys.
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

// renderTree writes a tree on one line: name@L<level>{loops} then the
// binding and children in parentheses for a tile, =op for a leaf.
func renderTree(b *strings.Builder, n *core.Node) {
	fmt.Fprintf(b, "%s@L%d{", n.Name, n.Level)
	for i, l := range n.Loops {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	if n.IsLeaf() {
		b.WriteString("=" + n.Op.Name)
		return
	}
	fmt.Fprintf(b, "%s(", n.Binding)
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(" ")
		}
		renderTree(b, c)
	}
	b.WriteByte(')')
}

// goldenLine renders one case: its label, factor map, and the tree or the
// error text.
func goldenLine(gt goldenTemplate, f map[string]int, root *core.Node, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s | %s | ", gt.spec.Name, gt.df.Name(), gt.df.Graph().Name, formatFactors(f))
	if err != nil {
		b.WriteString("error: " + err.Error())
	} else {
		renderTree(&b, root)
	}
	return b.String()
}

// renderTemplateGolden builds every golden case, one line each.
func renderTemplateGolden() []string {
	var lines []string
	for _, gt := range goldenTemplates() {
		for _, f := range gt.maps {
			root, err := gt.df.Build(f)
			lines = append(lines, goldenLine(gt, f, root, err))
		}
	}
	return lines
}

// readTemplateGolden loads the committed golden's lines.
func readTemplateGolden(t *testing.T) []string {
	t.Helper()
	want, err := os.ReadFile(templateGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	return strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
}

// TestTemplateBuildGolden: every template's trees and errors stay
// byte-identical to the committed golden.
func TestTemplateBuildGolden(t *testing.T) {
	got := renderTemplateGolden()
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(templateGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(templateGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readTemplateGolden(t)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("Build output diverges from %s at line %d:\ngot  %s\nwant %s", templateGoldenPath, i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Build output has %d lines, %s has %d", len(got), templateGoldenPath, len(want))
	}
}
