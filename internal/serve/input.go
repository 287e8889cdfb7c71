package serve

import (
	"errors"
	"fmt"

	"repro/internal/diag"
)

// CodeRequest flags a request that mixes, or names none of, the mutually
// exclusive input forms. It is the one coded rejection shared by
// /v1/evaluate, /v1/vet, and the CLI's flag validation, so every surface
// reports the same TF-REQ-001 for the same mistake.
var CodeRequest = diag.Register(diag.Info{
	Code:  "TF-REQ-001",
	Title: "invalid input selection",
	Hint:  "give exactly one of config_yaml, notation, or dataflow, plus only the fields that form accepts",
})

// requestError is an input-selection mistake: a plain error for the CLI,
// and a carrier of the coded TF-REQ-001 diagnostic for HTTP error bodies.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

// Diagnostics renders the mistake as a one-element coded list. Request
// shape has no source position, so the span is zero.
func (e *requestError) Diagnostics() diag.List {
	var r diag.Reporter
	r.Reportf(CodeRequest, diag.Span{}, "", "%s", e.msg)
	return r.List()
}

func reqErrf(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// The three mapping forms a request can select.
const (
	inputConfig   = "config"
	inputNotation = "notation"
	inputDataflow = "dataflow"
)

// SelectInput decides which input form an EvaluateRequest uses and
// enforces their mutual exclusion in one place, for resolve (evaluate),
// Vet, AnalyzeSpace, and the CLI alike. config_yaml is self-contained — it
// carries the architecture, problem, and mapping — so it excludes every
// other design-point field; notation keeps its historical rule of
// excluding templates and tuning.
func SelectInput(req *EvaluateRequest) (string, error) {
	switch {
	case req.ConfigYAML != "":
		switch {
		case req.Notation != "" || req.Dataflow != "":
			return "", reqErrf("config_yaml excludes notation and dataflow")
		case req.Arch != "" || req.ArchSpec != "" || req.Workload != "" || req.WorkloadSpec != "":
			return "", reqErrf("config_yaml is self-contained; drop arch, arch_spec, workload and workload_spec")
		case req.Tune > 0 || len(req.Factors) > 0:
			return "", reqErrf("config_yaml excludes factors and tune")
		}
		return inputConfig, nil
	case req.Notation != "":
		if req.Dataflow != "" || req.Tune > 0 {
			return "", reqErrf("notation excludes dataflow and tune")
		}
		return inputNotation, nil
	case req.Dataflow != "":
		return inputDataflow, nil
	}
	return "", reqErrf("one of config_yaml, notation or dataflow is required")
}

// requestDiagnostics extracts the coded diagnostic from an input-selection
// rejection, unwrapping the HTTP status layer; nil for every other error.
func requestDiagnostics(err error) diag.List {
	var re *requestError
	if errors.As(err, &re) {
		return re.Diagnostics()
	}
	return nil
}
