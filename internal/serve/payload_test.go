package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mapper"
)

// checkCanonical fails the test unless p's bytes are already the
// canonical form jobs.ParsePayload, the route of payloads from outside
// the process, makes of them.
func checkCanonical(t *testing.T, name string, p jobs.Payload) {
	t.Helper()
	c, err := jobs.ParsePayload(name, p.Bytes())
	if err != nil || !bytes.Equal(p.Bytes(), c.Bytes()) {
		t.Errorf("%s: jobs.Marshal gives\n%s\nits canonical form is\n%s (%v)", name, p.Bytes(), c.Bytes(), err)
	}
}

// TestSearchJobPayloadsCanonical: every payload shape runSearchJob hands
// the store through jobs.Marshal is already canonical, so skipping the
// scan stores the bytes the scan would have stored. It covers progress
// with and without best_cycles, a checkpoint with ±inf trace entries and
// factor maps, a result holding <, > and &, and the payloads a real
// search job emits.
func TestSearchJobPayloadsCanonical(t *testing.T) {
	marshal := func(name string, v any) jobs.Payload {
		t.Helper()
		p, err := jobs.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCanonical(t, name, p)
		return p
	}
	best := 98765.25
	marshal("progress without best_cycles", &SearchProgress{Generation: 0, Generations: 12})
	marshal("progress with best_cycles", &SearchProgress{Generation: 3, Generations: 12, BestCycles: &best, BestEncoding: "T[<0,1>] & M[1,2]"})

	var cp mapper.Checkpoint
	if err := json.Unmarshal([]byte(`{"version":1,"fingerprint":"edge|attention:Bert-S<&>","seed":3,
		"population":2,"generations":12,"top_k":2,"tile_rounds":4,"next_gen":3,"rng_draws":77,
		"individuals":[{"target":[1,2,-1],"mem":[1,1,2],"binding":[0,1,0]},{"target":[0],"mem":[2],"binding":[1]}],
		"tuned":[
			{"encoding":{"target":[0],"mem":[2],"binding":[1]},"infeasible":true,"cycles":"+inf","rounds":4},
			{"encoding":{"target":[1,2,-1],"mem":[1,1,2],"binding":[0,1,0]},"cycles":123456.5,
			 "factors":{"L1_k":4,"L1_m":8,"L2_<h>":2,"sp_c&s":4},"rounds":24}],
		"best":{"encoding":{"target":[1,2,-1],"mem":[1,1,2],"binding":[0,1,0]},"cycles":1.5e-7,"factors":{"L1_k":4},"rounds":24},
		"trace":["+inf","-inf",98765.25,1e21,1.5e-7]}`), &cp); err != nil {
		t.Fatal(err)
	}
	p := marshal("checkpoint", &cp)
	if b, err := mapper.EncodeCheckpoint(&cp); err != nil || !bytes.Equal(b, p.Bytes()) {
		t.Errorf("checkpoint: jobs.Marshal gives\n%s\nmapper.EncodeCheckpoint gives\n%s (%v)", p.Bytes(), b, err)
	}

	marshal("result", &SearchResponse{
		Workload: "attention:Bert-S", Arch: "edge", Cycles: best,
		Encoding: "T[<0,1>] & M[1,2]",
		Factors:  map[string]int{"L1_<m>": 8, "k&n": 2},
		Notation: "tile root @L2 = { m:1 } (a > b && c < d)",
		Trace:    []float64{1e21, 1.5e-7, best},
		Result:   &ResultJSON{Cycles: best, TensorDM: map[string][]LevelDMJSON{"Q<K>&V": nil}},
	})

	// The payloads of a real search job, as runSearchJob emits them.
	s, _ := newTestServer(t, Config{})
	req := smallSearch()
	rb, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	res, err := s.runSearchJob(context.Background(), &jobs.Job{ID: "j00000001", Kind: searchJobKind, Request: rb},
		func(progress, checkpoint jobs.Payload) {
			updates++
			checkCanonical(t, "search progress", progress)
			checkCanonical(t, "search checkpoint", checkpoint)
		})
	if err != nil {
		t.Fatal(err)
	}
	if updates != req.Generations {
		t.Errorf("search reported %d updates, want %d", updates, req.Generations)
	}
	checkCanonical(t, "search result", res)
}
