package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

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
//
// The (arch, graph) half of the text is the same for every key flavour of
// a design point, so it is rendered once (canonicalText) and each key
// hashes it between its own header and trailer. The key bytes are pinned
// by testdata/canonical_keys.golden.

// canonicalText renders the "arch:\n…graph:\n…" text every key of one
// (arch, graph) pair shares.
func canonicalText(spec *arch.Spec, g *workload.Graph) string {
	b := make([]byte, 0, 512+160*len(g.Ops)+64*len(g.Tensors))
	b = append(b, "arch:\n"...)
	b = arch.AppendSpec(b, spec)
	b = append(b, "graph:\n"...)
	b = workload.AppendCanonicalGraph(b, g)
	return string(b)
}

// EvaluateKey is the canonical cache key for one fully specified design
// point (a concrete analysis tree).
func EvaluateKey(spec *arch.Spec, g *workload.Graph, root *core.Node, opts core.Options) string {
	return evaluateKey(canonicalText(spec, g), root, opts)
}

// evaluateKey is EvaluateKey over an already rendered canonicalText.
func evaluateKey(canon string, root *core.Node, opts core.Options) string {
	return digest("tileflow/v1/evaluate\n", canon, optionsLine(opts), "mapping:\n", notation.Print(root))
}

// tunedKey is the canonical key for a template request whose factors are
// chosen by the mapper: the mapping is determined by (template, budget,
// seed) rather than a concrete tree.
func tunedKey(canon, dfName string, tune int, seed int64, opts core.Options) string {
	return digest("tileflow/v1/evaluate-tuned\n", canon, optionsLine(opts),
		"template: ", dfName, " tune=", strconv.Itoa(tune), " seed=", strconv.FormatInt(seed, 10), "\n")
}

// searchKey is the canonical key for a 3D design-space search request.
func searchKey(spec *arch.Spec, g *workload.Graph, req *SearchRequest) string {
	return digest("tileflow/v1/search\n", canonicalText(spec, g), optionsLine(req.options()),
		"search: pop=", strconv.Itoa(req.Population), " gens=", strconv.Itoa(req.Generations),
		" tile=", strconv.Itoa(req.TileRounds), " topk=", strconv.Itoa(req.TopK),
		" seed=", strconv.FormatInt(req.Seed, 10), "\n")
}

// programKey is the structure-only key of a design point — architecture,
// workload graph and the tree's structure signature, with no tiling
// factors and no evaluation options (a Program is options-independent).
// It groups the items of one batch request that can share a compiled
// core.Program.
func programKey(canon string, root *core.Node) string {
	return digest("tileflow/v1/program\n", canon, "structure:\n", core.StructureSignature(root))
}

// optionsLine renders the evaluation options every evaluate, tuned and
// search key carries after the canonical text.
func optionsLine(opts core.Options) string {
	return "options: skipcap=" + strconv.FormatBool(opts.SkipCapacityCheck) +
		" skippe=" + strconv.FormatBool(opts.SkipPECheck) +
		" noretention=" + strconv.FormatBool(opts.DisableRetention) + "\n"
}

// digest is the hex SHA-256 of the concatenated parts.
func digest(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for _, p := range parts {
		b = append(b, p...)
	}
	sum := sha256.Sum256(b)
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
	return digest("tileflow/v1/warmstart\n",
		"arch-structure:\n", arch.StructureSignature(spec),
		"graph-structure:\n", workload.StructureSignature(g))
}
