package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/workload"
)

// Canonical keys identify design points independently of how a request
// spelled them: the architecture is rendered through arch.FormatSpec, the
// workload graph through a sorted structural dump, and the mapping through
// the tile-centric notation — so a design point reached via a named
// template with explicit factors and the same point written directly in
// the DSL hash to the same key and share one cache entry. The key is the
// hex SHA-256 of that canonical text.

// EvaluateKey is the canonical cache key for one fully specified design
// point (a concrete analysis tree).
func EvaluateKey(spec *arch.Spec, g *workload.Graph, root *core.Node, opts core.Options) string {
	var b strings.Builder
	b.WriteString("tileflow/v1/evaluate\n")
	writeCommon(&b, spec, g, opts)
	b.WriteString("mapping:\n")
	b.WriteString(notation.Print(root))
	return digest(b.String())
}

// tunedKey is the canonical key for a template request whose factors are
// chosen by the mapper: the mapping is determined by (template, budget,
// seed) rather than a concrete tree.
func tunedKey(spec *arch.Spec, g *workload.Graph, dfName string, tune int, seed int64, opts core.Options) string {
	var b strings.Builder
	b.WriteString("tileflow/v1/evaluate-tuned\n")
	writeCommon(&b, spec, g, opts)
	fmt.Fprintf(&b, "template: %s tune=%d seed=%d\n", dfName, tune, seed)
	return digest(b.String())
}

// searchKey is the canonical key for a 3D design-space search request.
func searchKey(spec *arch.Spec, g *workload.Graph, req *SearchRequest) string {
	var b strings.Builder
	b.WriteString("tileflow/v1/search\n")
	writeCommon(&b, spec, g, req.options())
	fmt.Fprintf(&b, "search: pop=%d gens=%d tile=%d topk=%d seed=%d\n", req.Population, req.Generations, req.TileRounds, req.TopK, req.Seed)
	return digest(b.String())
}

// programKey is the canonical key of a compiled core.Program: the
// structure-only prefix of a design point — architecture, workload graph
// and the tree's structure signature, with no tiling factors and no
// evaluation options (a Program is options-independent). Requests that
// differ only in tiling or options share one compiled Program under it.
func programKey(spec *arch.Spec, g *workload.Graph, root *core.Node) string {
	var b strings.Builder
	b.WriteString("tileflow/v1/program\n")
	b.WriteString("arch:\n")
	b.WriteString(arch.FormatSpec(spec))
	b.WriteString("graph:\n")
	b.WriteString(workload.CanonicalGraph(g))
	b.WriteString("structure:\n")
	b.WriteString(core.StructureSignature(root))
	return digest(b.String())
}

func writeCommon(b *strings.Builder, spec *arch.Spec, g *workload.Graph, opts core.Options) {
	b.WriteString("arch:\n")
	b.WriteString(arch.FormatSpec(spec))
	b.WriteString("graph:\n")
	b.WriteString(workload.CanonicalGraph(g))
	fmt.Fprintf(b, "options: skipcap=%v skippe=%v noretention=%v\n",
		opts.SkipCapacityCheck, opts.SkipPECheck, opts.DisableRetention)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// warmKey is the structure-only canonical prefix used by the warm-start
// checkpoint library: architecture levels (names/fanout, no capacities)
// plus the workload graph's operator/tensor structure (dimension names,
// no sizes). Two design points that differ only in tensor shapes —
// e.g. Bert-S vs Bert-L attention on the same machine — share one key,
// so a finished search on one can seed the GA population of the other.
// Anything affecting fitness (shapes, capacities, options, seed) is
// deliberately excluded: only encodings are transferred under this key,
// never fitness values.
func warmKey(spec *arch.Spec, g *workload.Graph) string {
	var b strings.Builder
	b.WriteString("tileflow/v1/warmstart\n")
	b.WriteString("arch-structure:\n")
	b.WriteString(arch.StructureSignature(spec))
	b.WriteString("graph-structure:\n")
	b.WriteString(workload.StructureSignature(g))
	return digest(b.String())
}
