// Package serve exposes TileFlow's tree-based analysis as a concurrent
// evaluation service: an HTTP/JSON API backed by a bounded worker pool,
// per-request cancellation threaded down into core.EvaluateContext and
// mapper.TreeSearch.RunContext, and a sharded LRU memoization cache keyed
// by a canonical hash of (architecture, workload graph, mapping, options),
// so identical design points — whether re-requested by a client or
// revisited by an outer search loop — are analyzed once.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/notation"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// EvaluateRequest selects one design point: an architecture, a workload
// graph, and a mapping given either as a named dataflow template with
// tiling factors (optionally mapper-tuned) or as tile-centric notation.
type EvaluateRequest struct {
	// Arch names a built-in accelerator (edge, cloud, validation, a100);
	// ArchSpec supplies an inline spec in arch.ParseSpec format instead.
	Arch     string `json:"arch,omitempty"`
	ArchSpec string `json:"arch_spec,omitempty"`
	// Workload is attention:<Table2 name> or conv:<Table3 name>.
	Workload string `json:"workload,omitempty"`
	// WorkloadSpec supplies an inline workload graph in the
	// workload.CanonicalGraph text format instead of a catalog name; it
	// requires a notation mapping (templates are catalog-shaped).
	WorkloadSpec string `json:"workload_spec,omitempty"`
	// Dataflow names a Table 5 template; Factors overrides its tiling
	// factors (defaults when empty).
	Dataflow string         `json:"dataflow,omitempty"`
	Factors  map[string]int `json:"factors,omitempty"`
	// Notation gives the mapping in the tile-centric DSL instead of a
	// template.
	Notation string `json:"notation,omitempty"`
	// ConfigYAML supplies the whole design point — architecture, problem
	// and mapping — as one Timeloop-style YAML config (internal/yamlfe).
	// It is self-contained and excludes every other design-point field.
	ConfigYAML string `json:"config_yaml,omitempty"`
	// Tune > 0 runs that many MCTS rounds to tune the template's factors
	// before evaluating (deterministic given Seed).
	Tune int   `json:"tune,omitempty"`
	Seed int64 `json:"seed,omitempty"`

	SkipCapacityCheck bool `json:"skip_capacity_check,omitempty"`
	SkipPECheck       bool `json:"skip_pe_check,omitempty"`
	DisableRetention  bool `json:"disable_retention,omitempty"`

	// MaxProbes bounds the design points the /v1/analyze space analyzer
	// evaluates (0 = spaceck.DefaultMaxProbes). Ignored by the other
	// endpoints.
	MaxProbes int `json:"max_probes,omitempty"`

	// TimeoutMS bounds this request below the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the memoization cache (the result is still stored).
	NoCache bool `json:"no_cache,omitempty"`
}

// EvaluateResponse is the service's answer for one design point. The CLI's
// -json mode prints the identical structure, so the two outputs are
// byte-comparable.
type EvaluateResponse struct {
	Workload     string         `json:"workload"`
	Dataflow     string         `json:"dataflow"`
	Arch         string         `json:"arch"`
	Cached       bool           `json:"cached,omitempty"`
	TunedFactors map[string]int `json:"tuned_factors,omitempty"`
	Result       *ResultJSON    `json:"result"`
}

// LevelDMJSON is core.LevelDM tagged with the level name.
type LevelDMJSON struct {
	Level  string  `json:"level"`
	Fill   float64 `json:"fill"`
	Read   float64 `json:"read"`
	Update float64 `json:"update"`
}

// ResultJSON is the machine-readable rendering of core.Result shared by
// the server and the CLI's -json flag.
type ResultJSON struct {
	Cycles             float64                  `json:"cycles"`
	TimeMS             float64                  `json:"time_ms"`
	ComputeCycles      float64                  `json:"compute_cycles"`
	MACs               float64                  `json:"macs"`
	VectorOps          float64                  `json:"vector_ops"`
	DRAMTrafficWords   float64                  `json:"dram_traffic_words"`
	OnChipTrafficWords float64                  `json:"onchip_traffic_words"`
	DM                 []LevelDMJSON            `json:"dm"`
	TensorDM           map[string][]LevelDMJSON `json:"tensor_dm,omitempty"`
	EnergyPJ           float64                  `json:"energy_pj"`
	EnergyPerLevelPJ   []float64                `json:"energy_per_level_pj"`
	ComputeEnergyPJ    float64                  `json:"compute_energy_pj"`
	PEsUsed            int                      `json:"pes_used"`
	TotalPEs           int                      `json:"total_pes"`
	Utilization        float64                  `json:"utilization"`
	UnitUsage          []int                    `json:"unit_usage"`
	FootprintWords     []int64                  `json:"footprint_words"`
	SlowDown           []float64                `json:"slow_down"`
	BandwidthReqGBs    []float64                `json:"bandwidth_req_gbs"`
}

// NewResultJSON converts a core.Result for the given architecture.
func NewResultJSON(res *core.Result, spec *arch.Spec) *ResultJSON {
	dmJSON := func(dm []core.LevelDM) []LevelDMJSON {
		out := make([]LevelDMJSON, len(dm))
		for i, d := range dm {
			out[i] = LevelDMJSON{Level: spec.Levels[i].Name, Fill: d.Fill, Read: d.Read, Update: d.Update}
		}
		return out
	}
	r := &ResultJSON{
		Cycles:             res.Cycles,
		TimeMS:             res.Cycles / (spec.FreqGHz * 1e9) * 1e3,
		ComputeCycles:      res.ComputeCycles,
		MACs:               res.MACs,
		VectorOps:          res.VectorOps,
		DRAMTrafficWords:   res.DRAMTraffic(),
		OnChipTrafficWords: res.OnChipTraffic(),
		DM:                 dmJSON(res.DM),
		EnergyPJ:           res.EnergyPJ(),
		EnergyPerLevelPJ:   res.Energy.PerLevelPJ,
		ComputeEnergyPJ:    res.Energy.ComputePJ,
		PEsUsed:            res.PEsUsed,
		TotalPEs:           res.TotalPEs,
		Utilization:        res.Utilization,
		UnitUsage:          res.UnitUsage,
		FootprintWords:     res.FootprintWords,
		SlowDown:           res.SlowDown,
		BandwidthReqGBs:    res.BandwidthReqGBs,
	}
	if len(res.TensorDM) > 0 {
		r.TensorDM = make(map[string][]LevelDMJSON, len(res.TensorDM))
		for tensor, dm := range res.TensorDM {
			r.TensorDM[tensor] = dmJSON(dm)
		}
	}
	return r
}

// PickArch resolves a built-in accelerator name.
func PickArch(name string) (*arch.Spec, error) {
	switch strings.ToLower(name) {
	case "edge":
		return arch.Edge(), nil
	case "cloud":
		return arch.Cloud(), nil
	case "validation":
		return arch.Validation(), nil
	case "a100":
		return arch.A100Like(), nil
	}
	return nil, fmt.Errorf("unknown arch %q (want edge, cloud, validation or a100)", name)
}

// PickGraph resolves "attention:<name>", "conv:<name>", or
// "matmul:<M>x<N>x<K>" to a workload graph.
func PickGraph(wl string) (*workload.Graph, error) {
	kind, name, ok := strings.Cut(wl, ":")
	if !ok {
		return nil, fmt.Errorf("workload must be attention:<name>, conv:<name>, or matmul:<M>x<N>x<K>")
	}
	switch kind {
	case "matmul":
		dims := strings.Split(name, "x")
		sizes := make([]int, 0, 3)
		for _, d := range dims {
			v, err := strconv.Atoi(d)
			if err != nil || v < 1 {
				sizes = nil
				break
			}
			sizes = append(sizes, v)
		}
		if len(dims) != 3 || len(sizes) != 3 {
			return nil, fmt.Errorf("matmul workload must be matmul:<M>x<N>x<K> with positive sizes")
		}
		return workload.Matmul(sizes[0], sizes[1], sizes[2]), nil
	case "attention":
		shape, ok := workload.AttentionShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown attention shape %q (Table 2 names)", name)
		}
		return workload.Attention(shape), nil
	case "conv":
		shape, ok := workload.ConvChainShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown conv chain %q (Table 3 names)", name)
		}
		return workload.ConvChain(shape), nil
	}
	return nil, fmt.Errorf("unknown workload kind %q", kind)
}

// PickDataflow resolves a Table 5 dataflow template for a workload.
func PickDataflow(df, wl string, spec *arch.Spec) (dataflows.Dataflow, error) {
	kind, name, ok := strings.Cut(wl, ":")
	if !ok {
		return nil, fmt.Errorf("workload must be attention:<name> or conv:<name>")
	}
	switch kind {
	case "attention":
		shape, ok := workload.AttentionShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown attention shape %q (Table 2 names)", name)
		}
		switch df {
		case "Layerwise":
			return dataflows.LayerwiseAttention(shape, spec), nil
		case "Uni-pipe":
			return dataflows.UniPipe(shape, spec), nil
		case "FLAT-MGran":
			return dataflows.FLATMGran(shape, spec), nil
		case "FLAT-BGran":
			return dataflows.FLATBGran(shape, spec), nil
		case "FLAT-HGran":
			return dataflows.FLATHGran(shape, spec), nil
		case "FLAT-RGran":
			return dataflows.FLATRGran(shape, spec), nil
		case "Chimera":
			return dataflows.Chimera(shape, spec), nil
		case "TileFlow":
			return dataflows.TileFlowAttention(shape, spec), nil
		}
		return nil, fmt.Errorf("unknown attention dataflow %q", df)
	case "conv":
		shape, ok := workload.ConvChainShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown conv chain %q (Table 3 names)", name)
		}
		switch df {
		case "Layerwise":
			return dataflows.LayerwiseConv(shape, spec), nil
		case "Fused-Layer":
			return dataflows.FusedLayer(shape, spec), nil
		case "ISOS":
			return dataflows.ISOS(shape, spec), nil
		case "TileFlow":
			return dataflows.TileFlowConv(shape, spec), nil
		}
		return nil, fmt.Errorf("unknown conv dataflow %q", df)
	}
	return nil, fmt.Errorf("unknown workload kind %q", kind)
}

// designPoint is a fully resolved EvaluateRequest.
type designPoint struct {
	spec   *arch.Spec
	g      *workload.Graph
	opts   core.Options
	dfName string

	// Exactly one of the two mapping forms is set: a concrete tree, or a
	// template plus a tuning budget.
	root *core.Node
	df   dataflows.Dataflow
	tune int
	seed int64
}

// The request resolver. Every endpoint that names a design point picks its
// architecture with pickSpec, its workload graph with graph, and its
// evaluation options with options; each then keeps only its own final
// step: evaluate builds, parses or tunes the tree, vet runs the static
// analyzer, analyze narrows the factor space, search explores mappings.

// pickSpec resolves a request's architecture: an inline arch_spec, else a
// built-in name.
func pickSpec(name, inline string) (*arch.Spec, error) {
	switch {
	case inline != "":
		return arch.ParseSpec(inline)
	case name != "":
		return PickArch(name)
	}
	return nil, fmt.Errorf("one of arch or arch_spec is required")
}

// graph resolves the workload graph an EvaluateRequest names for its input
// form (notation or dataflow). A dataflow form also returns its template,
// whose own graph view is the one evaluated: a template may model a
// sub-graph of the named workload.
func (req *EvaluateRequest) graph(form string, spec *arch.Spec) (*workload.Graph, dataflows.Dataflow, error) {
	switch {
	case req.Workload == "" && req.WorkloadSpec == "":
		return nil, nil, fmt.Errorf("one of workload or workload_spec is required")
	case form == inputDataflow:
		if req.WorkloadSpec != "" {
			return nil, nil, fmt.Errorf("workload_spec requires a notation mapping (dataflow templates are catalog-shaped)")
		}
		df, err := PickDataflow(req.Dataflow, req.Workload, spec)
		if err != nil {
			return nil, nil, err
		}
		return df.Graph(), df, nil
	case req.WorkloadSpec == "":
		g, err := PickGraph(req.Workload)
		return g, nil, err
	case req.Workload != "":
		return nil, nil, fmt.Errorf("workload and workload_spec are mutually exclusive")
	}
	g, err := workload.ParseGraph(req.WorkloadSpec)
	return g, nil, err
}

// build builds a template with the request's factors (its defaults when
// none are given).
func (req *EvaluateRequest) build(df dataflows.Dataflow) (*core.Node, error) {
	if len(req.Factors) > 0 {
		return df.Build(req.Factors)
	}
	return df.Build(df.DefaultFactors())
}

// options is the request's evaluation options.
func (req *EvaluateRequest) options() core.Options {
	return core.Options{
		SkipCapacityCheck: req.SkipCapacityCheck,
		SkipPECheck:       req.SkipPECheck,
		DisableRetention:  req.DisableRetention,
	}
}

// resolve validates an EvaluateRequest against the built-in catalogs and
// parses inline specs and notation.
func resolve(req *EvaluateRequest) (*designPoint, error) {
	form, err := SelectInput(req)
	if err != nil {
		return nil, err
	}
	dp := &designPoint{opts: req.options(), tune: req.Tune, seed: req.Seed}
	if form == inputConfig {
		cfg, err := yamlfe.LoadStrict(req.ConfigYAML)
		if err != nil {
			return nil, err
		}
		dp.spec, dp.g, dp.root = cfg.Spec, cfg.Graph, cfg.Root
		dp.dfName = "config"
		return dp, nil
	}
	if dp.spec, err = pickSpec(req.Arch, req.ArchSpec); err != nil {
		return nil, err
	}
	if dp.g, dp.df, err = req.graph(form, dp.spec); err != nil {
		return nil, err
	}
	dp.dfName = req.Dataflow
	switch {
	case form == inputNotation:
		dp.dfName = "notation"
		dp.root, err = notation.Parse(req.Notation, dp.g)
	case req.Tune <= 0:
		dp.root, err = req.build(dp.df)
	case len(req.Factors) > 0:
		err = fmt.Errorf("factors and tune are mutually exclusive")
	}
	if err != nil {
		return nil, err
	}
	return dp, nil
}

// options is the search's evaluation options.
func (req *SearchRequest) options() core.Options {
	return core.Options{
		SkipCapacityCheck: req.SkipCapacityCheck,
		SkipPECheck:       req.SkipPECheck,
		DisableRetention:  req.DisableRetention,
	}
}

// resolve resolves a search request's architecture and full workload
// graph: a search explores mappings rather than naming one.
func (req *SearchRequest) resolve() (*arch.Spec, *workload.Graph, error) {
	spec, err := pickSpec(req.Arch, req.ArchSpec)
	if err != nil {
		return nil, nil, err
	}
	if req.Workload == "" {
		return nil, nil, fmt.Errorf("workload is required")
	}
	g, err := PickGraph(req.Workload)
	return spec, g, err
}
