package serve

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// DesignPointKeys is one resolved design point with every canonical key
// flavour over it, for the external canonical-key golden (package
// serve_test, which may import internal/conformance; conformance imports
// serve).
type DesignPointKeys struct {
	Spec  *arch.Spec
	Graph *workload.Graph
	Root  *core.Node
	Opts  core.Options

	// Key is the design point's own cache key and Program its batch
	// grouping key, both empty when the request's tree does not build;
	// Tuned is the key of the same point tuned under (tune, seed) and
	// Search the key of sreq over the same (arch, graph).
	Key, Program, Tuned, Search string
}

// ResolveKeys resolves a request and renders its canonical keys. A
// template whose factors do not build still resolves for its tuned and
// search keys.
func ResolveKeys(req *EvaluateRequest, tune int, seed int64, sreq *SearchRequest) (*DesignPointKeys, error) {
	dp, err := resolve(req)
	if err != nil && req.Dataflow != "" {
		treq := *req
		treq.Tune = tune
		dp, err = resolve(&treq)
	}
	if err != nil {
		return nil, err
	}
	k := &DesignPointKeys{Spec: dp.spec, Graph: dp.g, Root: dp.root, Opts: dp.opts, Search: searchKey(dp.spec, dp.g, sreq)}
	if dp.root != nil {
		k.Key, k.Program = dp.key(), programKey(dp.canon, dp.root)
	}
	tuned := *dp
	tuned.root, tuned.tune, tuned.seed = nil, tune, seed
	k.Tuned = tuned.key()
	return k, nil
}
