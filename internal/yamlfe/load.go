package yamlfe

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/workload"
)

// Config is a fully loaded Timeloop-style configuration: the three parts
// of a TileFlow design point in this repository's native types.
type Config struct {
	Spec  *arch.Spec
	Graph *workload.Graph
	Root  *core.Node
}

// Load parses and loads a config, collecting every problem as a coded,
// positioned diagnostic. The Config is nil exactly when the returned list
// contains at least one error; warning-only lists come with a usable
// Config.
func Load(src string) (*Config, diag.List) {
	var r diag.Reporter
	root := parseYAML(src, &r)
	var cfg *Config
	if !r.HasErrors() {
		ld := &loader{r: &r}
		cfg = ld.load(root)
	}
	diags := r.List()
	if diags.HasErrors() {
		return nil, diags
	}
	return cfg, diags
}

// LoadStrict is Load returning the diagnostics as an error on failure,
// for callers that do not distinguish warnings.
func LoadStrict(src string) (*Config, error) {
	cfg, diags := Load(src)
	if cfg == nil {
		if len(diags) == 0 {
			return nil, fmt.Errorf("yamlfe: empty config")
		}
		return nil, diags
	}
	return cfg, nil
}

type loader struct {
	r *diag.Reporter
}

// ---- generic node accessors -------------------------------------------

func (ld *loader) mapping(n *node, what string) *node {
	if n == nil {
		return nil
	}
	if n.kind != kindMapping {
		ld.r.Reportf(CodeKind, n.span, "", "%s must be a mapping, got a %s", what, n.kind)
		return nil
	}
	return n
}

func (ld *loader) sequence(n *node, what string) *node {
	if n == nil {
		return nil
	}
	if n.kind != kindSequence {
		ld.r.Reportf(CodeKind, n.span, "", "%s must be a sequence, got a %s", what, n.kind)
		return nil
	}
	return n
}

func (ld *loader) scalar(n *node, what string) (string, bool) {
	if n == nil {
		return "", false
	}
	if n.kind != kindScalar {
		ld.r.Reportf(CodeKind, n.span, "", "%s must be a scalar, got a %s", what, n.kind)
		return "", false
	}
	return n.text, true
}

func (ld *loader) str(n *node, what string) (string, bool) {
	s, ok := ld.scalar(n, what)
	if !ok {
		return "", false
	}
	if s == "" {
		ld.r.Reportf(CodeScalar, n.span, "", "%s must not be empty", what)
		return "", false
	}
	return s, true
}

func (ld *loader) integer(n *node, what string) (int, bool) {
	s, ok := ld.scalar(n, what)
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		ld.r.Reportf(CodeScalar, n.span, "", "%s: %q is not an integer", what, s)
		return 0, false
	}
	return v, true
}

func (ld *loader) float(n *node, what string) (float64, bool) {
	s, ok := ld.scalar(n, what)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		ld.r.Reportf(CodeScalar, n.span, "", "%s: %q is not a number", what, s)
		return 0, false
	}
	return v, true
}

func (ld *loader) boolean(n *node, what string) (bool, bool) {
	s, ok := ld.scalar(n, what)
	if !ok {
		return false, false
	}
	switch strings.ToLower(s) {
	case "true", "yes", "on":
		return true, true
	case "false", "no", "off":
		return false, true
	}
	ld.r.Reportf(CodeScalar, n.span, "", "%s: %q is not a boolean", what, s)
	return false, false
}

// isIdent reports whether s is a safe bare name: letters, digits,
// underscore, dot and dash, not starting with a digit or dash.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case i > 0 && (c >= '0' && c <= '9' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

func (ld *loader) ident(n *node, what string) (string, bool) {
	s, ok := ld.str(n, what)
	if !ok {
		return "", false
	}
	if !isIdent(s) {
		ld.r.Reportf(CodeScalar, n.span, "", "%s: %q is not a valid name", what, s)
		return "", false
	}
	return s, true
}

// checkFields warns about mapping keys outside the allowed set.
func (ld *loader) checkFields(m *node, what string, allowed ...string) {
	for i, k := range m.keys {
		known := false
		for _, a := range allowed {
			if k == a {
				known = true
				break
			}
		}
		if !known {
			ld.r.Reportf(CodeUnknownField, m.keySpans[i], "", "%s: unknown field %q ignored", what, k)
		}
	}
}

// nameList reads a list of names given either as a sequence of scalars or
// as one space/comma-separated scalar.
func (ld *loader) nameList(n *node, what string) ([]string, []diag.Span) {
	var names []string
	var spans []diag.Span
	if n == nil {
		return nil, nil
	}
	switch n.kind {
	case kindSequence:
		for _, item := range n.items {
			if s, ok := ld.ident(item, what+" entry"); ok {
				names = append(names, s)
				spans = append(spans, item.span)
			}
		}
	case kindScalar:
		for _, f := range strings.FieldsFunc(n.text, func(r rune) bool { return r == ' ' || r == ',' }) {
			if !isIdent(f) {
				ld.r.Reportf(CodeScalar, n.span, "", "%s: %q is not a valid name", what, f)
				continue
			}
			names = append(names, f)
			spans = append(spans, n.span)
		}
	default:
		ld.r.Reportf(CodeKind, n.span, "", "%s must be a sequence or a scalar", what)
	}
	return names, spans
}

// ---- top level ---------------------------------------------------------

// notModeledSections are top-level Timeloop/TileFlow sections the loader
// accepts for compatibility but the model ignores.
var notModeledSections = []string{"check", "tileflow-mapper", "mapper", "macro", "output", "verbose", "version"}

func (ld *loader) load(root *node) *Config {
	if root == nil {
		ld.r.Reportf(CodeMissing, diag.Span{}, "", "empty config: architecture, problem and mapping sections are required")
		return nil
	}
	m := ld.mapping(root, "config")
	if m == nil {
		return nil
	}
	allowed := append([]string{"architecture", "problem", "mapping"}, notModeledSections...)
	ld.checkFields(m, "config", allowed...)
	for _, sec := range notModeledSections {
		if f := m.field(sec); f != nil {
			ld.r.Reportf(CodeNotModeled, m.keySpan(sec), "", "section %q is accepted but not modeled", sec)
		}
	}
	var spec *arch.Spec
	var g *workload.Graph
	var tree *core.Node
	if n := m.field("architecture"); n != nil {
		spec = ld.loadArch(n)
	} else {
		ld.r.Reportf(CodeMissing, m.span, "", "config: missing %q section", "architecture")
	}
	if n := m.field("problem"); n != nil {
		g = ld.loadProblem(n, m.keySpan("problem"))
	} else {
		ld.r.Reportf(CodeMissing, m.span, "", "config: missing %q section", "problem")
	}
	if n := m.field("mapping"); n != nil {
		if spec != nil && g != nil {
			tree = ld.loadMapping(n, g, spec)
		}
	} else {
		ld.r.Reportf(CodeMissing, m.span, "", "config: missing %q section", "mapping")
	}
	if spec == nil || g == nil || tree == nil {
		return nil
	}
	return &Config{Spec: spec, Graph: g, Root: tree}
}

// ---- architecture ------------------------------------------------------

// levelRec is one storage component discovered in the architecture walk,
// outermost first, with the chip-wide instance count implied by the
// container multiplicities on its path.
type levelRec struct {
	name   string
	span   diag.Span
	cap    int64
	bwGBs  float64 // aggregate GB/s; <0 when unset
	readBW float64 // per-instance words/cycle; <0 when unset
	inst   int
}

func (ld *loader) loadArch(n *node) *arch.Spec {
	m := ld.mapping(n, "architecture")
	if m == nil {
		return nil
	}
	ld.checkFields(m, "architecture", "version", "name", "attributes", "subtree")
	spec := &arch.Spec{Name: "custom", FreqGHz: 1, WordBytes: 2, MACsPerPE: 1, VectorLanesPerSubcore: 32}
	if f := m.field("name"); f != nil {
		if s, ok := ld.ident(f, "architecture name"); ok {
			spec.Name = s
		}
	}
	meshSet := false
	if attrs := m.field("attributes"); attrs != nil {
		meshSet = ld.archAttrs(attrs, spec)
	}
	sub := m.field("subtree")
	if sub == nil {
		ld.r.Reportf(CodeMissing, m.span, "", "architecture: missing %q", "subtree")
		return nil
	}
	seq := ld.sequence(sub, "architecture subtree")
	if seq == nil {
		return nil
	}
	if len(seq.items) != 1 {
		ld.r.Reportf(CodeArch, seq.span, "", "architecture subtree must contain exactly one system node, got %d", len(seq.items))
		return nil
	}
	var recs []levelRec
	ld.walkArchNode(seq.items[0], 1, &recs)
	if ld.r.HasErrors() {
		return nil
	}
	// recs are outermost-first; arch.Spec wants innermost-first.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	if len(recs) < 2 {
		ld.r.Reportf(CodeArch, m.keySpan("subtree"), "", "architecture: need at least two storage levels, found %d", len(recs))
		return nil
	}
	if out := recs[len(recs)-1]; out.inst != 1 {
		ld.r.Reportf(CodeArch, out.span, "", "outermost level %q must have exactly one instance, got %d", out.name, out.inst)
		return nil
	}
	for i, rec := range recs {
		fan := 1
		if i > 0 {
			below := recs[i-1].inst
			if below%rec.inst != 0 {
				ld.r.Reportf(CodeArch, rec.span, "",
					"level %q: %d instances of %q below do not divide evenly across %d instances",
					rec.name, below, recs[i-1].name, rec.inst)
				return nil
			}
			fan = below / rec.inst
		}
		bw := 0.0
		switch {
		case rec.bwGBs >= 0:
			bw = rec.bwGBs
		case rec.readBW >= 0:
			// Timeloop read_bandwidth is words/cycle per instance.
			bw = rec.readBW * float64(rec.inst) * float64(spec.WordBytes) * spec.FreqGHz
		}
		spec.Levels = append(spec.Levels, arch.Level{
			Name: rec.name, CapacityBytes: rec.cap, BandwidthGBs: bw, Fanout: fan,
		})
	}
	if !meshSet {
		// Derive a near-square PE mesh from the fanout above the registers.
		f := spec.Levels[1].Fanout
		mx := 1
		for d := 1; d*d <= f; d++ {
			if f%d == 0 {
				mx = d
			}
		}
		spec.MeshX, spec.MeshY = mx, f/mx
	}
	if err := spec.Validate(); err != nil {
		ld.r.Reportf(CodeArch, m.span, "", "architecture: %v", err)
		return nil
	}
	return spec
}

// archAttrs applies the global architecture attributes; it reports whether
// an explicit PE mesh was given.
func (ld *loader) archAttrs(n *node, spec *arch.Spec) bool {
	m := ld.mapping(n, "architecture attributes")
	if m == nil {
		return false
	}
	ld.checkFields(m, "architecture attributes",
		"freq_ghz", "word_bytes", "word_bits", "macs_per_pe", "vector_lanes", "mesh", "direct_access")
	meshSet := false
	if f := m.field("freq_ghz"); f != nil {
		if v, ok := ld.float(f, "freq_ghz"); ok {
			spec.FreqGHz = v
		}
	}
	if f := m.field("word_bytes"); f != nil {
		if v, ok := ld.integer(f, "word_bytes"); ok {
			spec.WordBytes = v
		}
	} else if f := m.field("word_bits"); f != nil {
		if v, ok := ld.integer(f, "word_bits"); ok {
			if v%8 != 0 {
				ld.r.Reportf(CodeScalar, f.span, "", "word_bits: %d is not a multiple of 8", v)
			} else {
				spec.WordBytes = v / 8
			}
		}
	}
	if f := m.field("macs_per_pe"); f != nil {
		if v, ok := ld.integer(f, "macs_per_pe"); ok {
			spec.MACsPerPE = v
		}
	}
	if f := m.field("vector_lanes"); f != nil {
		if v, ok := ld.integer(f, "vector_lanes"); ok {
			spec.VectorLanesPerSubcore = v
		}
	}
	if f := m.field("mesh"); f != nil {
		if seq := ld.sequence(f, "mesh"); seq != nil {
			if len(seq.items) != 2 {
				ld.r.Reportf(CodeScalar, f.span, "", "mesh must be [x, y]")
			} else {
				x, okX := ld.integer(seq.items[0], "mesh x")
				y, okY := ld.integer(seq.items[1], "mesh y")
				if okX && okY {
					spec.MeshX, spec.MeshY = x, y
					meshSet = true
				}
			}
		}
	}
	if f := m.field("direct_access"); f != nil {
		if seq := ld.sequence(f, "direct_access"); seq != nil {
			for _, pair := range seq.items {
				ps := ld.sequence(pair, "direct_access entry")
				if ps == nil {
					continue
				}
				if len(ps.items) != 2 {
					ld.r.Reportf(CodeScalar, pair.span, "", "direct_access entry must be [inner, outer]")
					continue
				}
				in, okI := ld.integer(ps.items[0], "direct_access inner")
				out, okO := ld.integer(ps.items[1], "direct_access outer")
				if okI && okO {
					spec.DirectAccess = append(spec.DirectAccess, [2]int{in, out})
				}
			}
		}
	}
	return meshSet
}

// walkArchNode descends one container of the Timeloop architecture tree,
// collecting storage components outermost-first.
func (ld *loader) walkArchNode(n *node, mult int, recs *[]levelRec) {
	m := ld.mapping(n, "architecture subtree entry")
	if m == nil {
		return
	}
	ld.checkFields(m, "architecture subtree entry", "name", "attributes", "local", "subtree")
	total := mult
	if f := m.field("name"); f != nil {
		if s, ok := ld.str(f, "subtree entry name"); ok {
			_, count, err := parseMultiplicity(s)
			if err != nil {
				ld.r.Reportf(CodeScalar, f.span, "", "subtree entry name: %v", err)
			} else {
				total = mult * count
			}
		}
	} else {
		ld.r.Reportf(CodeMissing, m.span, "", "architecture subtree entry: missing %q", "name")
	}
	if f := m.field("local"); f != nil {
		if seq := ld.sequence(f, "local"); seq != nil {
			for _, comp := range seq.items {
				ld.archComponent(comp, total, recs)
			}
		}
	}
	if f := m.field("subtree"); f != nil {
		if seq := ld.sequence(f, "subtree"); seq != nil {
			if len(seq.items) > 1 {
				ld.r.Reportf(CodeArch, seq.items[1].span, "",
					"non-linear hierarchy: a container may have at most one subtree child")
			}
			if len(seq.items) > 0 {
				ld.walkArchNode(seq.items[0], total, recs)
			}
		}
	}
}

// archComponent loads one `local` component: a storage level or an
// ignored compute unit.
func (ld *loader) archComponent(n *node, inst int, recs *[]levelRec) {
	m := ld.mapping(n, "local component")
	if m == nil {
		return
	}
	ld.checkFields(m, "local component", "name", "class", "attributes")
	name := ""
	span := m.span
	if f := m.field("name"); f != nil {
		if s, ok := ld.ident(f, "component name"); ok {
			name, span = s, f.span
		}
	}
	if name == "" {
		ld.r.Reportf(CodeMissing, m.span, "", "local component: missing %q", "name")
		return
	}
	class := ""
	if f := m.field("class"); f != nil {
		class, _ = ld.scalar(f, "component class")
	}
	lc := strings.ToLower(class)
	if strings.Contains(lc, "compute") || strings.Contains(lc, "mac") {
		return // compute units carry no storage
	}
	rec := levelRec{name: name, span: span, bwGBs: -1, readBW: -1, inst: inst}
	isDRAM := strings.Contains(lc, "dram")
	attrs := m.field("attributes")
	if attrs != nil {
		am := ld.mapping(attrs, "component attributes")
		if am == nil {
			return
		}
		ld.checkFields(am, "component attributes",
			"capacity", "depth", "block-size", "block_size", "word-bits", "word_bits",
			"width", "bandwidth_gbs", "read_bandwidth", "write_bandwidth")
		if f := am.field("capacity"); f != nil {
			if s, ok := ld.scalar(f, "capacity"); ok {
				c, err := arch.ParseCapacity(s)
				if err != nil {
					ld.r.Reportf(CodeScalar, f.span, "", "capacity: %v", err)
				} else {
					rec.cap = c
				}
			}
		} else if f := am.field("depth"); f != nil {
			if depth, ok := ld.integer(f, "depth"); ok {
				block := ld.intEither(am, "block-size", "block_size", 1)
				bits := ld.intEither(am, "word-bits", "word_bits", 16)
				rec.cap = int64(depth) * int64(block) * int64(bits) / 8
			}
		}
		if f := am.field("bandwidth_gbs"); f != nil {
			if v, ok := ld.float(f, "bandwidth_gbs"); ok {
				rec.bwGBs = v
			}
		} else if f := am.field("read_bandwidth"); f != nil {
			if v, ok := ld.float(f, "read_bandwidth"); ok {
				rec.readBW = v
			}
		}
	}
	if isDRAM {
		rec.cap = 0
	}
	*recs = append(*recs, rec)
}

// intEither reads an integer attribute under either spelling, falling
// back to def when absent or malformed.
func (ld *loader) intEither(m *node, key, alt string, def int) int {
	f := m.field(key)
	if f == nil {
		f = m.field(alt)
	}
	if f == nil {
		return def
	}
	if v, ok := ld.integer(f, key); ok {
		return v
	}
	return def
}

// parseMultiplicity splits "PE[0..15]" into ("PE", 16); a plain name has
// multiplicity 1.
func parseMultiplicity(s string) (string, int, error) {
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return s, 1, nil
	}
	if !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("bad multiplicity in %q (want name[a..b])", s)
	}
	lo, hi, ok := strings.Cut(s[open+1:len(s)-1], "..")
	if !ok {
		return "", 0, fmt.Errorf("bad multiplicity in %q (want name[a..b])", s)
	}
	a, errA := strconv.Atoi(lo)
	b, errB := strconv.Atoi(hi)
	if errA != nil || errB != nil || a < 0 || b < a {
		return "", 0, fmt.Errorf("bad multiplicity range in %q", s)
	}
	return s[:open], b - a + 1, nil
}
