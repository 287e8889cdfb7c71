package serve

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// TestCatalogResolves: every Table 5 catalog name resolves through
// PickDataflow, under its own name, for every Table 2 or Table 3 shape of
// its workload kind, and a name outside the catalog is refused.
func TestCatalogResolves(t *testing.T) {
	spec := arch.Edge()
	check := func(kind string, names, shapes []string) {
		for _, name := range names {
			for _, shape := range shapes {
				df, err := PickDataflow(name, kind+":"+shape, spec)
				if err != nil {
					t.Errorf("%s on %s:%s: %v", name, kind, shape, err)
					continue
				}
				if df.Name() != name {
					t.Errorf("%s on %s:%s resolved to %s", name, kind, shape, df.Name())
				}
			}
		}
		if _, err := PickDataflow("Nope", kind+":"+shapes[0], spec); err == nil {
			t.Errorf("unknown %s dataflow resolved", kind)
		}
	}
	var attn, conv []string
	for _, s := range workload.AttentionShapes {
		attn = append(attn, s.Name)
	}
	for _, s := range workload.ConvChainShapes {
		conv = append(conv, s.Name)
	}
	check("attention", dataflows.AttentionCatalog.Names(), attn)
	check("conv", dataflows.ConvCatalog.Names(), conv)
}
