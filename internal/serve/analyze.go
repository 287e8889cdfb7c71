package serve

import (
	"fmt"

	"repro/internal/notation"
	"repro/internal/spaceck"
	"repro/internal/yamlfe"
)

// AnalyzeSpace runs the search-space abstract interpreter over the design
// point a request names: narrowed per-factor domains, rule-attributed
// removals, and an emptiness proof when no assignment is feasible. The
// request selects its input with the same mutual-exclusion rule as evaluate
// and vet (SelectInput). A dataflow form analyzes the named template's own
// factor space; notation and config_yaml forms analyze the retiling space
// of the concrete tree (spaceck.Retile) — every legal reassignment of its
// loop extents. The CLI's `tileflow analyze -json` calls this same
// function, so the two JSON outputs are byte-identical.
func AnalyzeSpace(req *EvaluateRequest) (*spaceck.Report, error) {
	form, err := SelectInput(req)
	if err != nil {
		return nil, badRequest(err)
	}
	if req.Tune > 0 {
		return nil, badRequest(fmt.Errorf("analyze explores the whole factor space; drop tune"))
	}
	if len(req.Factors) > 0 {
		return nil, badRequest(fmt.Errorf("analyze explores the whole factor space; drop factors"))
	}
	opt := spaceck.Options{MaxProbes: req.MaxProbes, Core: req.options()}
	if form == inputConfig {
		// Analysis needs a loadable design point: unlike vet, a config that
		// fails to load is a bad request (its diagnostics ride the error
		// body), not an analysis answer.
		cfg, err := yamlfe.LoadStrict(req.ConfigYAML)
		if err != nil {
			return nil, badRequest(err)
		}
		df, err := spaceck.Retile("config", cfg.Root, cfg.Graph)
		if err != nil {
			return nil, badRequest(err)
		}
		return spaceck.Analyze(df, cfg.Spec, opt), nil
	}
	spec, err := pickSpec(req.Arch, req.ArchSpec)
	if err != nil {
		return nil, badRequest(err)
	}
	g, df, err := req.graph(form, spec)
	if err != nil {
		return nil, badRequest(err)
	}
	if df == nil {
		root, err := notation.Parse(req.Notation, g)
		if err != nil {
			return nil, badRequest(err)
		}
		if df, err = spaceck.Retile("notation", root, g); err != nil {
			return nil, badRequest(err)
		}
	}
	return spaceck.Analyze(df, spec, opt), nil
}
