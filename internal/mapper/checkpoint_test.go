package mapper

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

func checkpointSearch(t *testing.T, parallel int) *TreeSearch {
	t.Helper()
	shape, ok := workload.AttentionShapeByName("ViT/16-B")
	if !ok {
		t.Fatal("shape not found")
	}
	return &TreeSearch{
		G: workload.Attention(shape), Spec: arch.Edge(),
		Population: 5, Generations: 5, TileRounds: 12, Parallel: parallel,
		Seed: 20240805,
	}
}

type fullOutcome struct {
	cycles   float64
	energy   float64
	enc      string
	factors  map[string]int
	trace    []float64
	notation string
}

func outcomeOf(t *testing.T, r *TreeSearchResult) fullOutcome {
	t.Helper()
	if r.Best == nil {
		t.Fatal("search found nothing")
	}
	if r.Best.Result == nil {
		t.Fatal("best has no core.Result")
	}
	return fullOutcome{
		cycles:  r.Best.Cycles,
		energy:  r.Best.Result.EnergyPJ(),
		enc:     r.Encoding.String(),
		factors: r.Best.Factors,
		trace:   r.Trace,
	}
}

func (a fullOutcome) equal(b fullOutcome) bool {
	return a.cycles == b.cycles && a.energy == b.energy && a.enc == b.enc &&
		reflect.DeepEqual(a.factors, b.factors) && reflect.DeepEqual(a.trace, b.trace)
}

// interruptAt runs the search and kills it right after generation k
// completes, returning the checkpoint emitted at that boundary after a
// round-trip through the JSON codec (exactly what the job store and the
// CLI persist).
func interruptAt(t *testing.T, s *TreeSearch, k int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp *Checkpoint
	s.Progress = func(p ProgressEvent) {
		if p.Generation == k {
			cp = p.Checkpoint
			cancel()
		}
	}
	s.RunContext(ctx)
	if cp == nil {
		t.Fatalf("no checkpoint captured at generation %d", k)
	}
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return decoded
}

// TestKillAndResumeEquivalence is the PR's acceptance gate: a search
// interrupted at ANY generation boundary and resumed from the serialized
// checkpoint produces the identical best encoding, cycles, energy,
// factors, and generation-by-generation trace as the uninterrupted run
// with the same seed.
func TestKillAndResumeEquivalence(t *testing.T) {
	full := checkpointSearch(t, 4)
	want := outcomeOf(t, full.Run())

	for k := 1; k <= 5; k++ {
		cp := interruptAt(t, checkpointSearch(t, 4), k)
		if got, wantGen := cp.NextGen, k; got != wantGen {
			t.Fatalf("checkpoint at generation %d has next_gen %d", k, got)
		}
		resumed := checkpointSearch(t, 4)
		if err := resumed.Resume(cp); err != nil {
			t.Fatalf("resume at gen %d: %v", k, err)
		}
		got := outcomeOf(t, resumed.Run())
		if !got.equal(want) {
			t.Errorf("resume at generation %d diverged:\nwant %+v\ngot  %+v", k, want, got)
		}
	}
}

// TestResumeCompletedCheckpoint: resuming the final checkpoint re-runs
// nothing and still reports the identical winner, with the core.Result
// rebuilt by the finalizer.
func TestResumeCompletedCheckpoint(t *testing.T) {
	want := outcomeOf(t, checkpointSearch(t, 2).Run())

	var last *Checkpoint
	s := checkpointSearch(t, 2)
	s.Progress = func(p ProgressEvent) { last = p.Checkpoint }
	s.Run()
	if last == nil || !last.Complete() {
		t.Fatalf("final checkpoint missing or incomplete: %+v", last)
	}
	b, err := EncodeCheckpoint(last)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	resumed := checkpointSearch(t, 2)
	if err := resumed.Resume(cp); err != nil {
		t.Fatal(err)
	}
	got := outcomeOf(t, resumed.Run())
	if !got.equal(want) {
		t.Errorf("resumed-complete run differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCheckpointRoundTripInfinities: infeasible fitness and pre-feasible
// trace entries are infinite; the codec must round-trip them bit-exactly.
func TestCheckpointRoundTripInfinities(t *testing.T) {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: "abc",
		Population:  2,
		Generations: 4,
		TopK:        2,
		NextGen:     1,
		RNGDraws:    17,
		Individuals: []EncodingState{
			{Target: []int{-1}, Mem: []int{1}, Binding: []int{0}},
			{Target: []int{-1}, Mem: []int{2}, Binding: []int{3}},
		},
		Tuned: []TunedStats{
			{Encoding: EncodingState{Target: []int{-1}, Mem: []int{1}, Binding: []int{0}}, Infeasible: true, Cycles: cpFloat(math.Inf(1)), Rounds: 40},
			{Encoding: EncodingState{Target: []int{-1}, Mem: []int{2}, Binding: []int{3}}, Cycles: 1234.5678901234, Factors: map[string]int{"L1_m": 4}, Rounds: 40},
		},
		Trace: []cpFloat{cpFloat(math.Inf(1)), 1234.5678901234},
	}
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Errorf("round trip mutated checkpoint:\nwant %+v\ngot  %+v", cp, got)
	}
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint must only resume the
// exact search it came from.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	cp := interruptAt(t, checkpointSearch(t, 1), 2)

	other := checkpointSearch(t, 1)
	other.Seed = 999 // different seed → different fingerprint
	if err := other.Resume(cp); err == nil {
		t.Error("Resume accepted a checkpoint from a different seed")
	}

	shaped := checkpointSearch(t, 1)
	shaped.Population = 9 // different GA shape
	if err := shaped.Resume(cp); err == nil {
		t.Error("Resume accepted a checkpoint with a different population")
	}

	if _, err := DecodeCheckpoint([]byte(`{"version":99}`)); err == nil {
		t.Error("DecodeCheckpoint accepted an unknown version")
	}
	if _, err := DecodeCheckpoint([]byte(`not json`)); err == nil {
		t.Error("DecodeCheckpoint accepted garbage")
	}
}

// TestRunContextIgnoresIncompatibleCheckpoint: RunContext with a stale
// checkpoint installed directly (bypassing Resume) starts fresh rather
// than corrupting the run — the recovery behavior a server wants after a
// deploy changes the search configuration.
func TestRunContextIgnoresIncompatibleCheckpoint(t *testing.T) {
	want := outcomeOf(t, checkpointSearch(t, 1).Run())

	cp := interruptAt(t, checkpointSearch(t, 1), 2)
	s := checkpointSearch(t, 1)
	cp.Fingerprint = "stale"
	s.Checkpoint = cp
	got := outcomeOf(t, s.Run())
	if !got.equal(want) {
		t.Errorf("incompatible checkpoint changed the result:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCPFloatMatchesMarshal: a finite checkpoint float renders exactly as
// json.Marshal(float64) does, over the format's edge values (the 'f'/'e'
// switch points, the e-0N trim, subnormals, signed zero) and random bit
// patterns; NaN is refused as json.Marshal refuses it.
func TestCPFloatMatchesMarshal(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", v, err)
		}
		got, err := cpFloat(v).MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cpFloat(%v) = %s, %v; json.Marshal gives %s", v, got, err, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1234.5678901234,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 1e-9, 1e-10, 1e-99, 1e-100,
		1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1e99, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		float64(1<<53) + 2, 123456789012345678,
	}
	for _, v := range edges {
		check(v)
		check(-v)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200_000; {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		check(v)
		n++
	}
	// Random bit patterns rarely land in the 'f' range; cover it too.
	for n := 0; n < 50_000; n++ {
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	}
	if _, err := cpFloat(math.NaN()).MarshalJSON(); err == nil {
		t.Error("cpFloat(NaN) encoded; json.Marshal refuses NaN")
	}
}
