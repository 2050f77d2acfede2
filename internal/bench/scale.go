package bench

// E9s: memory-scale worlds over the sealed posting-list index.
// Measures what the compressed read path costs and saves at 10⁵–10⁷
// facts: generation and bulk-load (sort + posting build) time, index
// and live-heap bytes per fact, and point-query latency against
// Zipf-skewed data, where hub entities give the longest posting runs.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/sym"
)

// scaleProbes is the number of random point queries per measurement.
const scaleProbes = 20_000

// scalePoints labels scale worlds by requested size; Setup replaces
// "facts" with the distinct count after dedup.
func scalePoints(sizes ...int) []Point {
	out := make([]Point, len(sizes))
	for i, n := range sizes {
		cfg := gen.ScaleConfig{Facts: n}.Normalized()
		out[i] = Point{"facts": n, "entities": cfg.Entities, "world": fmt.Sprintf("zipf(%.1f)", cfg.Skew)}
	}
	return out
}

// scaleProbeSet draws point queries from the same Zipf shape the data
// came from, so hot entities are probed proportionally to their
// posting length: half present facts, half likely-absent ones.
func scaleProbeSet(u *fact.Universe, s *store.Store, cfg gen.ScaleConfig) []fact.Fact {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(max(cfg.Entities-1, 1)))
	probes := make([]fact.Fact, scaleProbes)
	all := s.Facts()
	for i := range probes {
		if i%2 == 0 {
			probes[i] = all[rng.Intn(len(all))]
		} else {
			probes[i] = fact.Fact{
				S: u.Intern(fmt.Sprintf("N%d", zipf.Uint64())),
				R: u.Intern(fmt.Sprintf("rel%d", rng.Intn(16))),
				T: u.Intern(fmt.Sprintf("N%d", zipf.Uint64())),
			}
		}
	}
	return probes
}

var e9s = &Experiment{
	Name:   "E9s",
	Title:  "memory-scale worlds: sealed posting-list index (Zipf entities)",
	Points: scalePoints(100_000, 1_000_000, 10_000_000),
	Quick:  1,
	Ops: []string{"E9_Scale/gen", "E9_Scale/sealed_postings", "E9_Scale/has", "E9_Scale/match_rt",
		"E9_Scale/matchall_s", "E9_Scale/estimate"},
	Setup: func(p Point) (*Fixture, error) {
		cfg := gen.ScaleConfig{Facts: p.Int("facts")}.Normalized()
		u := fact.NewUniverse()
		raw := gen.ScaleFacts(u, cfg)

		// Sealing sorts its input in place: keep raw unsorted so every
		// sealing iteration starts from generator order.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := store.SealedFromFacts(u, slices.Clone(raw))
		runtime.GC()
		runtime.ReadMemStats(&after)
		facts := float64(s.Len())
		stats := s.IndexStats()
		sealValues := map[string]float64{
			"index_bytes_per_fact": float64(stats.IndexBytes()) / facts,
			"heap_bytes_per_fact":  float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / facts,
			"posting_bytes":        float64(stats.PostingBytes),
			"buckets":              float64(stats.Buckets()),
		}

		probes := scaleProbeSet(u, s, cfg)
		sink := 0
		probe := func(fn func(f fact.Fact)) func(int) {
			return counted(func(k int) { fn(probes[k%len(probes)]) })
		}
		return &Fixture{
			Params: Point{"facts": s.Len()},
			Ops: []Op{
				{Reps: 1, Run: each(func() { gen.ScaleFacts(fact.NewUniverse(), cfg) })},
				{Reps: 1, Run: each(func() { store.SealedFromFacts(u, slices.Clone(raw)) }), Values: values(sealValues)},
				{Reps: scaleProbes, Run: probe(func(f fact.Fact) {
					if s.Has(f) {
						sink++
					}
				})},
				{Reps: scaleProbes, Run: probe(func(f fact.Fact) {
					s.Match(sym.None, f.R, f.T, func(fact.Fact) bool { sink++; return true })
				})},
				{Reps: scaleProbes, Run: probe(func(f fact.Fact) { sink += len(s.MatchAll(f.S, sym.None, sym.None)) })},
				{Reps: scaleProbes, Run: probe(func(f fact.Fact) { sink += s.EstimateCount(f.S, f.R, sym.None) })},
			},
		}, nil
	},
}
