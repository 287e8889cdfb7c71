package mapper

import (
	"sort"
)

// WarmStart seeds this search's initial population from a donor
// checkpoint of a structurally identical design point (same operator
// count; typically same graph structure with different tensor shapes).
// Donor encodings are taken best-first — the donor's best candidate,
// then its tuned feasible candidates by ascending cycles, then its final
// population in order — deduplicated, and capped at population-1 slots
// (slot 0 stays the layerwise no-fusion anchor). Returns how many seeds
// were installed; zero (donor structurally incompatible, or nothing
// usable) leaves the search cold.
//
// Safety: only encodings (genotypes) cross over. Fitness, tuned factors,
// and RNG state stay behind — the new search re-evaluates every seed
// under its own fitness-cache namespace (which includes the new shapes
// and seed), so a donor from different shapes can cost generations but
// can never import a wrong fitness value. Warm-starting intentionally
// changes the search trajectory versus cold; a checkpoint taken from a
// warm-started run embeds the seeded population, so kill/resume
// byte-identity within the run is unaffected.
func (s *TreeSearch) WarmStart(cp *Checkpoint) int {
	if cp == nil {
		return 0
	}
	n := len(s.G.Ops)
	pop, _, _, _ := s.knobs()
	max := pop - 1
	if max <= 0 {
		return 0
	}

	fits := func(es EncodingState) bool {
		return len(es.Target) == n && len(es.Mem) == n && len(es.Binding) == n
	}

	var donors []EncodingState
	if cp.Best != nil && !cp.Best.Infeasible {
		donors = append(donors, cp.Best.Encoding)
	}
	feasible := make([]TunedStats, 0, len(cp.Tuned))
	for _, ts := range cp.Tuned {
		if !ts.Infeasible {
			feasible = append(feasible, ts)
		}
	}
	sort.SliceStable(feasible, func(a, b int) bool {
		if feasible[a].Cycles != feasible[b].Cycles {
			return feasible[a].Cycles < feasible[b].Cycles
		}
		return feasible[a].Encoding.encoding().String() < feasible[b].Encoding.encoding().String()
	})
	for _, ts := range feasible {
		donors = append(donors, ts.Encoding)
	}
	donors = append(donors, cp.Individuals...)

	numLevels := s.Spec.NumLevels()
	seen := map[string]bool{LayerwiseEncoding(n).String(): true}
	var seeds []EncodingState
	for _, es := range donors {
		if len(seeds) >= max {
			break
		}
		if !fits(es) {
			continue
		}
		enc := es.encoding()
		enc.Repair(numLevels)
		key := enc.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		seeds = append(seeds, encodingState(enc))
	}
	s.seeds = seeds
	return len(seeds)
}
