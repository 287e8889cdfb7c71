package dataflows

import (
	"repro/internal/arch"
	"repro/internal/workload"
)

// Catalog is the Table 5 dataflow library for one workload kind, whose
// shapes are S: each template's name with its constructor, in table order.
// It is the one place a Table 5 name maps to a template.
type Catalog[S any] []struct {
	Name  string
	Build func(S, *arch.Spec) Dataflow
}

// AttentionCatalog lists the self-attention templates of Table 5.
var AttentionCatalog = Catalog[workload.AttentionShape]{
	{"Layerwise", LayerwiseAttention},
	{"Uni-pipe", UniPipe},
	{"FLAT-MGran", FLATMGran},
	{"FLAT-BGran", FLATBGran},
	{"FLAT-HGran", FLATHGran},
	{"FLAT-RGran", FLATRGran},
	{"Chimera", Chimera},
	{"TileFlow", TileFlowAttention},
}

// ConvCatalog lists the convolution-chain templates of Table 5.
var ConvCatalog = Catalog[workload.ConvChainShape]{
	{"Layerwise", LayerwiseConv},
	{"Fused-Layer", FusedLayer},
	{"ISOS", ISOS},
	{"TileFlow", TileFlowConv},
}

// New builds the named template for a shape on an architecture; nil when
// the catalog has no such name.
func (c Catalog[S]) New(name string, s S, spec *arch.Spec) Dataflow {
	for _, t := range c {
		if t.Name == name {
			return t.Build(s, spec)
		}
	}
	return nil
}

// Names lists the catalog's template names in table order.
func (c Catalog[S]) Names() []string {
	out := make([]string, len(c))
	for i, t := range c {
		out[i] = t.Name
	}
	return out
}
