package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/mapper"
	"repro/internal/serve"
	"repro/internal/workload"
)

// catalogItem is one Table 5 dataflow template on one Table 2/3 shape and
// one architecture, named the way the serve API names it.
type catalogItem struct {
	arch, workload, dataflow string
}

var (
	attentionDataflows = []string{"Layerwise", "Uni-pipe", "FLAT-MGran", "FLAT-BGran", "FLAT-HGran", "FLAT-RGran", "Chimera", "TileFlow"}
	convDataflows      = []string{"Layerwise", "Fused-Layer", "ISOS", "TileFlow"}
	archNames          = []string{"edge", "cloud"}
)

// catalog lists every template × shape × {Edge, Cloud} combination.
func catalog() []catalogItem {
	var out []catalogItem
	for _, a := range archNames {
		for _, s := range workload.AttentionShapes {
			for _, df := range attentionDataflows {
				out = append(out, catalogItem{a, "attention:" + s.Name, df})
			}
		}
		for _, s := range workload.ConvChainShapes {
			for _, df := range convDataflows {
				out = append(out, catalogItem{a, "conv:" + s.Name, df})
			}
		}
	}
	return out
}

// template is a resolved catalog item whose default factors evaluate.
type template struct {
	catalogItem
	spec *arch.Spec
	df   dataflows.Dataflow
}

// validTemplates resolves the catalog and keeps the templates whose
// default mapping evaluates, so every search has a valid starting point
// and returns a winner.
func validTemplates() ([]template, error) {
	var out []template
	for _, it := range catalog() {
		spec, err := serve.PickArch(it.arch)
		if err != nil {
			return nil, err
		}
		df, err := serve.PickDataflow(it.dataflow, it.workload, spec)
		if err != nil {
			return nil, err
		}
		root, err := df.Build(df.DefaultFactors())
		if err != nil {
			continue
		}
		if _, err := core.Evaluate(root, df.Graph(), spec, core.Options{}); err != nil {
			continue
		}
		out = append(out, template{it, spec, df})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no catalog template evaluates")
	}
	return out, nil
}

// tuneRounds is the MCTS budget of one search: the paper samples about 200
// tiling choices per template.
func tuneRounds(o options) int {
	if o.smoke {
		return 20
	}
	return 200
}

// tuneRun is one finished search, kept for the correctness check.
type tuneRun struct {
	t       *template
	factors map[string]int
	cycles  float64
}

// runTune is the tune workload: sequential mapper.TileSearch.Run calls, one
// per drawn template, in passes over the whole valid catalog. Each pass
// visits the catalog in a seeded order with seeded search streams; the
// first pass always completes, and best_cycles_geomean is the geometric
// mean of its winners. ops_per_s counts candidate evaluations (MCTS
// rounds); p50_ms and tail_ms (p90) are per search.
func runTune(o options, tr *tracer) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	heap := startHeapSampler()
	items, setupS, err := repeatSetup(validTemplates, func([]template) {})
	if err != nil {
		heap.Stop()
		return nil, err
	}
	if o.smoke {
		items = items[:6]
	}
	r.metrics["setup_s"] = setupS
	rounds := tuneRounds(o)
	n := len(items)
	var perm []int
	var runs []tuneRun
	var ops []opSample
	var firstPass []float64
	tt := &tuneTrace{}

	// A traced run replays each search after it, off the clock: replay
	// time extends the loop and is subtracted from every timestamp.
	start := time.Now()
	var replay time.Duration
	for i := 0; i < n || time.Since(start)-replay < o.seconds; i++ {
		pass, j := i/n, i%n
		if j == 0 {
			perm = rand.New(rand.NewSource(mix64(o.seed, int64(pass)))).Perm(n)
		}
		t := &items[perm[j]]
		var df dataflows.Dataflow = t.df
		var td *tracedDataflow
		if tr != nil {
			td = &tracedDataflow{Dataflow: t.df}
			df = td
		}
		ts := &mapper.TileSearch{Dataflow: df, Spec: t.spec, Rounds: rounds, Seed: mix64(o.seed, int64(pass), int64(j))}
		c0 := core.CompileCount()
		t0 := time.Now()
		best, trace := ts.Run()
		d := time.Since(t0)
		tt.compiles += core.CompileCount() - c0
		ops = append(ops, opSample{end: time.Since(start) - replay, lat: ms(d), work: float64(len(trace))})
		if best == nil {
			r.fail("%v: search found no valid mapping", t.catalogItem)
		} else {
			runs = append(runs, tuneRun{t, best.Factors, best.Cycles})
			if pass == 0 {
				firstPass = append(firstPass, best.Cycles)
			}
		}
		if td != nil {
			t1 := time.Now()
			tt.replay(t.spec, td, d)
			replay += time.Since(t1)
		}
	}
	elapsed := time.Since(start) - replay
	r.metrics["heap_peak_mb"] = heap.Stop()
	if len(runs) == 0 {
		return nil, errNoOps
	}
	r.attempted = len(ops)
	r.metrics["best_cycles_geomean"] = geomean(firstPass)
	windowMetrics(r, "candidate evaluations; search latency", 90, o.seconds, ops, nil)
	r.notef("%d searches over %d templates in %.2fs", len(ops), n, elapsed.Seconds())

	// Correctness: every winner, rebuilt and evaluated cold, must reproduce
	// the search's cycles bit for bit.
	for _, run := range runs {
		root, err := run.t.df.Build(run.factors)
		if err != nil {
			r.fail("%v: rebuilding the winner: %v", run.t.catalogItem, err)
			continue
		}
		res, err := core.Evaluate(root, run.t.df.Graph(), run.t.spec, core.Options{})
		if err != nil {
			r.fail("%v: cold evaluation of the winner: %v", run.t.catalogItem, err)
			continue
		}
		if res.Cycles != run.cycles {
			r.fail("%v: winner cycles %v, cold Evaluate %v", run.t.catalogItem, run.cycles, res.Cycles)
		}
	}
	if tr != nil {
		tt.report(tr, len(ops), elapsed)
	}
	return r, nil
}

// tracedDataflow wraps a template at the dataflows.Dataflow seam: it times
// every Build and keeps the built trees for the core replays. It forwards
// StructureStable, so the mapper still takes its compiled fast path.
type tracedDataflow struct {
	dataflows.Dataflow
	build stopwatch
	trees []*core.Node
}

func (d *tracedDataflow) Build(f map[string]int) (*core.Node, error) {
	var root *core.Node
	var err error
	d.build.time(func() { root, err = d.Dataflow.Build(f) })
	if err == nil {
		d.trees = append(d.trees, root)
	}
	return root, err
}

func (d *tracedDataflow) StructureStable() bool { return dataflows.IsStructureStable(d.Dataflow) }

// tuneTrace accumulates the traced tune figures. The mapper evaluates its
// candidates internally, so after each search the captured trees are
// replayed through core's public functions: Compile once, EvaluateDelta
// in order (the mapper's own path), and WithTiling + EvaluateInto (the
// full re-evaluation, for the delta-vs-full comparison).
type tuneTrace struct {
	build, compile, delta, rebind, into stopwatch
	compileAllocs, deltaAllocs          uint64
	core, mcts                          time.Duration // attributed self times
	candidates                          int
	compiles                            int64
	searchTime                          time.Duration
}

func (tt *tuneTrace) replay(spec *arch.Spec, td *tracedDataflow, search time.Duration) {
	tt.build.total += td.build.total
	tt.build.n += td.build.n
	tt.searchTime += search
	tt.candidates += td.build.n
	if len(td.trees) == 0 {
		tt.mcts += max(0, search-td.build.total)
		return
	}
	ctx := context.Background()
	opts := core.Options{}
	g := td.Graph()
	// Compile and the EvaluateDelta pass are timed and counted inline,
	// without closures, so the allocation counts are the calls' own.
	a0, t0 := allocCount(), time.Now()
	p, err := core.Compile(td.trees[0], g, spec)
	compile := time.Since(t0)
	tt.compileAllocs += allocCount() - a0
	tt.compile.total += compile
	tt.compile.n++
	if err != nil {
		tt.mcts += max(0, search-td.build.total)
		return
	}
	ds := p.NewDelta(opts)
	a0, t0 = allocCount(), time.Now()
	for _, root := range td.trees {
		p.EvaluateDelta(ctx, ds, root, opts)
	}
	delta := time.Since(t0)
	tt.deltaAllocs += allocCount() - a0
	tt.delta.total += delta
	tt.delta.n += len(td.trees)
	sc := p.NewScratch()
	for _, root := range td.trees {
		var q *core.Program
		tt.rebind.time(func() { q, err = p.WithTiling(root) })
		if err == nil {
			tt.into.time(func() { q.EvaluateInto(ctx, sc, opts) })
		}
	}
	// What the search spent outside Build, Compile and evaluation is the
	// mapper's own time. The replay evaluates every candidate through
	// EvaluateDelta, where the search batches its opening rounds, so its
	// estimate can exceed what the search had left; core is then charged
	// only that remainder.
	rest := max(0, search-td.build.total)
	coreT := min(rest, compile+delta)
	tt.core += coreT
	tt.mcts += rest - coreT
}

func (tt *tuneTrace) report(tr *tracer, searches int, traced time.Duration) {
	tt.setFigures(tr)
	tr.set("core.compiles_per_op", float64(tt.compiles)/float64(searches))
	tr.addTraced(traced)
	tr.addSelf("dataflows", tt.build.total)
	tr.addSelf("core", tt.core)
	tr.addSelf("mapper", tt.mcts)
}

// setFigures reports the per-call figures of the seams and replays.
func (tt *tuneTrace) setFigures(tr *tracer) {
	tr.set("dataflows.build_us", tt.build.perCall())
	tr.set("core.compile_us", tt.compile.perCall())
	tr.set("core.evaluate_delta_us", tt.delta.perCall())
	tr.set("core.evaluate_into_us", tt.into.perCall())
	tr.set("core.rebind_us", tt.rebind.perCall())
	if tt.compile.n > 0 {
		tr.set("core.compile_allocs", float64(tt.compileAllocs)/float64(tt.compile.n))
	}
	if tt.delta.n > 0 {
		tr.set("core.evaluate_delta_allocs", float64(tt.deltaAllocs)/float64(tt.delta.n))
	}
	if tt.candidates > 0 {
		tr.set("mapper.mcts_self_us", us(tt.mcts)/float64(tt.candidates))
	}
}
