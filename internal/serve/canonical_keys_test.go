package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/conformance"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
)

// canonicalKeysGoldenPath pins the bytes of every canonical key flavour:
// one line per design point with the digests of its arch.FormatSpec and
// workload.CanonicalGraph texts and its evaluate, program, tuned and
// search keys. Every cache tier (the response cache, the compiled-program
// cache, the mapper's fitness cache, the job store's fingerprints) is keyed
// by these bytes, so a rendering change that is meant to be invisible must
// leave this file unchanged. Regenerate with TILEFLOW_UPDATE_GOLDEN=1 only
// for a change that is meant to move every cached entry.
const canonicalKeysGoldenPath = "testdata/canonical_keys.golden"

// canonicalGeneratedPoints is the number of seeded conformance points the
// golden renders after the catalog templates.
const canonicalGeneratedPoints = 50

// catalogTemplates lists every Table 5 template the serve catalog names,
// as (workload, dataflow) pairs over every Table 2 and Table 3 shape.
func catalogTemplates() [][2]string {
	var out [][2]string
	for _, s := range workload.AttentionShapes {
		for _, df := range []string{"Layerwise", "Uni-pipe", "FLAT-MGran", "FLAT-BGran", "FLAT-HGran", "FLAT-RGran", "Chimera", "TileFlow"} {
			out = append(out, [2]string{"attention:" + s.Name, df})
		}
	}
	for _, s := range workload.ConvChainShapes {
		for _, df := range []string{"Layerwise", "Fused-Layer", "ISOS", "TileFlow"} {
			out = append(out, [2]string{"conv:" + s.Name, df})
		}
	}
	return out
}

// shortDigest is the first 8 bytes of a SHA-256, in hex: a golden line
// pins bytes, and 64 bits is ample to tell two renderings apart.
func shortDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// canonicalKeysLine resolves one request and renders its golden line:
// the digests of its spec and graph texts, its evaluate and program keys
// ("-" when a template's default factors do not build on the arch),
// the key of the same point tuned under (tune, seed), and the search key
// of sreq over the same (arch, graph).
func canonicalKeysLine(t *testing.T, label string, req *serve.EvaluateRequest, tune int, seed int64, sreq *serve.SearchRequest) (string, *serve.DesignPointKeys) {
	t.Helper()
	k, err := serve.ResolveKeys(req, tune, seed, sreq)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	eval, program := "-", "-"
	if k.Root != nil {
		ek := serve.EvaluateKey(k.Spec, k.Graph, k.Root, k.Opts)
		if k.Key != ek {
			t.Errorf("%s: designPoint key %s, EvaluateKey %s", label, k.Key, ek)
		}
		eval, program = ek[:16], k.Program[:16]
	}
	return fmt.Sprintf("%s | spec=%s graph=%s eval=%s program=%s tuned=%s search=%s\n", label,
		shortDigest(arch.FormatSpec(k.Spec)), shortDigest(workload.CanonicalGraph(k.Graph)),
		eval, program, k.Tuned[:16], k.Search[:16]), k
}

// perturbGraph rebuilds a generated graph so the golden covers what the
// conformance generator leaves out: a non-unit coefficient, positive and
// negative offsets (rendered "+-1"), and a density below 1 set through
// Graph.SetDensity.
func perturbGraph(t *testing.T, g *workload.Graph, seed int64) *workload.Graph {
	t.Helper()
	if seed%2 == 0 {
		return g
	}
	ops := make([]*workload.Operator, len(g.Ops))
	for i, op := range g.Ops {
		cp := *op
		cp.Reads = make([]workload.Access, len(op.Reads))
		for j, r := range op.Reads {
			cp.Reads[j] = workload.Access{Tensor: r.Tensor, Index: append([]workload.Index(nil), r.Index...)}
		}
		ops[i] = &cp
	}
	// Only graph inputs (never written) are restrided, so producer and
	// reader shapes stay consistent.
	in := ops[0].Reads[0]
	ix := &in.Index[len(in.Index)-1]
	terms := append([]workload.Term(nil), ix.Terms...)
	terms[0].Coef = 2 + int(seed%3)
	ix.Terms = terms
	ix.Offset = []int{3, -1, 0}[seed%3]
	ng, err := workload.NewGraph(g.Name, workload.WordBytes, ops...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := ng.SetDensity(in.Tensor, 0.3+0.05*float64(seed%5)); err != nil {
		t.Fatal(err)
	}
	return ng
}

// canonicalCoverage records which renderings the generated points reached.
type canonicalCoverage struct {
	coef, posOffset, negOffset, sparse bool
	capBytes, capKB, capMB, capInf     bool
	fracBandwidth, fracFreq, direct    bool
}

func (c *canonicalCoverage) add(spec *arch.Spec, g *workload.Graph) {
	for _, op := range g.Ops {
		for _, acc := range op.Accesses() {
			for _, ix := range acc.Index {
				for _, tm := range ix.Terms {
					c.coef = c.coef || tm.Coef != 1
				}
				c.posOffset = c.posOffset || ix.Offset > 0
				c.negOffset = c.negOffset || ix.Offset < 0
			}
		}
	}
	for _, tn := range g.Tensors {
		c.sparse = c.sparse || tn.EffDensity() < 1
	}
	for _, l := range spec.Levels {
		switch b := l.CapacityBytes; {
		case b == 0:
			c.capInf = true
		case b%(1<<20) == 0:
			c.capMB = true
		case b%(1<<10) == 0:
			c.capKB = true
		default:
			c.capBytes = true
		}
		c.fracBandwidth = c.fracBandwidth || l.BandwidthGBs != math.Trunc(l.BandwidthGBs)
	}
	c.fracFreq = c.fracFreq || spec.FreqGHz != math.Trunc(spec.FreqGHz)
	c.direct = c.direct || len(spec.DirectAccess) > 0
}

func (c *canonicalCoverage) missing() []string {
	var out []string
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"non-unit coefficient", c.coef}, {"positive offset", c.posOffset}, {"negative offset", c.negOffset},
		{"density below 1", c.sparse}, {"capacity in bytes", c.capBytes}, {"capacity in KB", c.capKB},
		{"capacity in MB", c.capMB}, {"inf capacity", c.capInf}, {"fractional bandwidth", c.fracBandwidth},
		{"fractional frequency", c.fracFreq}, {"direct access", c.direct},
	} {
		if !f.ok {
			out = append(out, f.name)
		}
	}
	return out
}

// canonicalKeysDump renders the golden: every catalog template on Edge and
// Cloud at its default factors, then the seeded conformance points sent
// as inline arch_spec, workload_spec and notation.
func canonicalKeysDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, archName := range []string{"edge", "cloud"} {
		for _, tpl := range catalogTemplates() {
			req := &serve.EvaluateRequest{Arch: archName, Workload: tpl[0], Dataflow: tpl[1]}
			sreq := &serve.SearchRequest{Arch: archName, Workload: tpl[0], Population: 6, Generations: 4, TileRounds: 10, TopK: 2, Seed: 5}
			line, _ := canonicalKeysLine(t, archName+" "+tpl[0]+" "+tpl[1], req, 8, 3, sreq)
			b.WriteString(line)
		}
	}
	var cov canonicalCoverage
	for seed := int64(1); seed <= canonicalGeneratedPoints; seed++ {
		p := conformance.Generate(seed)
		spec := *p.Spec
		if seed%3 == 1 {
			spec.FreqGHz = 0.7 + 0.15*float64(seed%4)
		}
		g := perturbGraph(t, p.Graph, seed)
		req := &serve.EvaluateRequest{
			ArchSpec:          arch.FormatSpec(&spec),
			WorkloadSpec:      workload.CanonicalGraph(g),
			Notation:          notation.Print(p.Root),
			SkipCapacityCheck: p.Opts.SkipCapacityCheck,
			SkipPECheck:       p.Opts.SkipPECheck,
			DisableRetention:  p.Opts.DisableRetention,
		}
		sreq := &serve.SearchRequest{Population: 4, Generations: 2, TileRounds: 6, Seed: seed,
			SkipCapacityCheck: p.Opts.SkipCapacityCheck, SkipPECheck: p.Opts.SkipPECheck, DisableRetention: p.Opts.DisableRetention}
		line, k := canonicalKeysLine(t, fmt.Sprintf("generated seed=%d", seed), req, 4, seed, sreq)
		b.WriteString(line)
		cov.add(k.Spec, k.Graph)
	}
	if m := cov.missing(); len(m) > 0 {
		t.Fatalf("generated points never render: %s", strings.Join(m, ", "))
	}
	return b.String()
}

// TestCanonicalKeysGolden: every canonical key flavour of every catalog
// template and generated point stays byte-identical to the committed
// golden.
func TestCanonicalKeysGolden(t *testing.T) {
	got := canonicalKeysDump(t)
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(canonicalKeysGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonicalKeysGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(canonicalKeysGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs from %s:\ngot  %s\nwant %s", i+1, canonicalKeysGoldenPath, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("canonical key dump has %d lines, %s has %d", len(gl), canonicalKeysGoldenPath, len(wl))
	}
}

// fewestAllocs is the fewest allocations any of 20 single calls of fn
// makes. Under the race detector sync.Pool drops pooled objects at random,
// so one call can allocate more than the next; the minimum is stable, and
// a rendering that gains an allocation still raises it.
func fewestAllocs(fn func()) float64 {
	least := math.Inf(1)
	for range 20 {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// TestCanonicalRenderAllocs gates the canonical renderings every key
// hashes: for every catalog graph, CanonicalGraph allocates its sorted
// tensor-name list, its buffer and the returned string, and FormatSpec its
// buffer and the string for every catalog architecture (rendered through
// fmt they took 362 and 23 on T5 attention and Cloud).
func TestCanonicalRenderAllocs(t *testing.T) {
	var graphs []*workload.Graph
	for _, s := range workload.AttentionShapes {
		graphs = append(graphs, workload.Attention(s))
	}
	for _, s := range workload.ConvChainShapes {
		graphs = append(graphs, workload.ConvChain(s))
	}
	for _, g := range graphs {
		if n := fewestAllocs(func() { workload.CanonicalGraph(g) }); n > 3 {
			t.Errorf("CanonicalGraph(%s) allocates %v objects, want <= 3", g.Name, n)
		}
	}
	for _, s := range []*arch.Spec{arch.Edge(), arch.Cloud(), arch.Validation(), arch.A100Like()} {
		if n := fewestAllocs(func() { arch.FormatSpec(s) }); n > 2 {
			t.Errorf("FormatSpec(%s) allocates %v objects, want <= 2", s.Name, n)
		}
	}
}
