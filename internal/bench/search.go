package bench

// E12, E12q, E12r: the keyword-search front door. Three questions,
// each tied to an acceptance number in EXPERIMENTS.md:
//
//   - Index build throughput: what does a full inverted-index rebuild
//     (the lazy-refresh unit of work) cost per fact at memory scale?
//   - Keyword QPS: how fast does a warm snapshot answer the query
//     shapes a browsing user types (exact names, prefixes, multi-term)?
//   - Ranking quality: does the scorer put the known-relevant entity
//     at the top — exact names at rank 1, synonym partners in the
//     top 5 — on generated worlds it has never seen?

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	lsdb "repro"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/sym"
)

// searchProbeCount is the number of queries per latency measurement.
const searchProbeCount = 2000

// E12 prices the lazy-refresh unit of work — a full inverted-index
// rebuild: tokenize → union-find → walk → encode, on a fresh Searcher
// per iteration — and warm-snapshot query latency by query shape,
// probes Zipf-shaped like the data so hot entities (the longest
// posting runs) dominate.
var e12 = &Experiment{
	Name:   "E12",
	Title:  "keyword search: inverted index build and warm-query latency (Zipf entities)",
	Points: scalePoints(20_000, 100_000, 1_000_000, 10_000_000),
	Quick:  1,
	Ops:    []string{"E12_IndexBuild", "E12_Query/exact", "E12_Query/prefix", "E12_Query/multi"},
	Setup: func(p Point) (*Fixture, error) {
		cfg := gen.ScaleConfig{Facts: p.Int("facts")}.Normalized()
		u := fact.NewUniverse()
		st := store.SealedFromFacts(u, gen.ScaleFacts(u, cfg))
		sr := search.New(st, u)
		stats := sr.Refresh()

		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(max(cfg.Entities-1, 1)))
		var exact, prefix, multi []string
		for i := 0; i < searchProbeCount; i++ {
			name := fmt.Sprintf("N%d", zipf.Uint64())
			exact = append(exact, name)
			prefix = append(prefix, strings.ToLower(name)[:2]) // "n1", "n4", ... wide fan-out
			multi = append(multi, name+" "+fmt.Sprintf("rel%d", rng.Intn(16)))
		}
		queries := func(qs []string) Op {
			return Op{Reps: len(qs), Run: counted(func(k int) { sr.Search(qs[k%len(qs)], search.Options{}) })}
		}
		return &Fixture{
			Params: Point{"facts": st.Len()},
			Ops: []Op{
				{Reps: 3, Run: each(func() { search.New(st, u).Refresh() }), Values: values(map[string]float64{
					"index_bytes":      float64(stats.Bytes),
					"arena_bytes":      float64(stats.ArenaBytes),
					"tokens":           float64(stats.Tokens),
					"indexed_entities": float64(stats.Entities),
				})},
				queries(exact), queries(prefix), queries(multi),
			},
		}, nil
	},
}

// rankingProbe is one held-out retrieval question: searching query
// on db should surface want within the top k.
type rankingProbe struct {
	db          *lsdb.Database
	query, want string
	exact       bool // exact-name probe (else a synonym probe)
}

// rankingProbes builds the generated medium worlds and their probes.
// Exact-name probes are up to perWorld stored entities queried by
// their own lowercased name; synonym probes query one side of every
// stored ≈ pair for the other — the paper's "browse by any name you
// know" promise. The index has never seen the worlds before, so this
// is held-out retrieval, not training-set recall.
func rankingProbes(seeds []int64, perWorld int) []rankingProbe {
	var out []rankingProbe
	for _, seed := range seeds {
		db := gen.Generate(seed, gen.Medium()).Build()
		db.Searcher().Refresh()
		u := db.Universe()
		facts := db.Store().Facts()

		ids := make(map[sym.ID]bool)
		for _, f := range facts {
			for _, e := range []sym.ID{f.S, f.T} {
				if !u.Special(e) {
					ids[e] = true
				}
			}
		}
		names := make([]string, 0, len(ids))
		for e := range ids {
			names = append(names, u.Name(e))
		}
		sort.Strings(names)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		if len(names) > perWorld {
			names = names[:perWorld]
		}
		for _, name := range names {
			out = append(out, rankingProbe{db: db, query: strings.ToLower(name), want: name, exact: true})
		}
		for _, f := range facts {
			if f.R != u.Syn || f.S == f.T {
				continue
			}
			for _, pair := range [][2]sym.ID{{f.S, f.T}, {f.T, f.S}} {
				out = append(out, rankingProbe{db: db, query: strings.ToLower(u.Name(pair[0])), want: u.Name(pair[1])})
			}
		}
	}
	return out
}

// rankingQuality scores the ranker: hit_at_1 is the fraction of
// exact-name probes whose entity ranked first, syn_hit_at_5 the
// fraction of synonym probes whose partner made the top 5, mrr_at_10
// the mean reciprocal rank of the exact-name targets within the top 10.
func rankingQuality(probes []rankingProbe) map[string]float64 {
	var exact, syn, hit1, syn5, mrr float64
	for _, pr := range probes {
		k := 5
		if pr.exact {
			k = 10
		}
		for rank, h := range pr.db.Search(pr.query, lsdb.SearchOptions{K: k}).Hits {
			if h.Name != pr.want {
				continue
			}
			if pr.exact {
				if rank == 0 {
					hit1++
				}
				mrr += 1 / float64(rank+1)
			} else {
				syn5++
			}
			break
		}
		if pr.exact {
			exact++
		} else {
			syn++
		}
	}
	return map[string]float64{
		"hit_at_1": hit1 / exact, "mrr_at_10": mrr / exact, "syn_hit_at_5": syn5 / syn,
		"exact_probes": exact, "syn_probes": syn,
	}
}

var e12r = &Experiment{
	Name:  "E12r",
	Title: "keyword search ranking quality on held-out generated worlds",
	Points: []Point{
		{"worlds": "medium", "seeds": []int64{3}, "probes": 60},
		{"worlds": "medium", "seeds": []int64{3, 5, 9}, "probes": 60},
	},
	Quick: 1,
	Ops:   []string{"E12_RankingQuality"},
	Setup: func(p Point) (*Fixture, error) {
		probes := rankingProbes(p["seeds"].([]int64), p.Int("probes"))
		var q map[string]float64
		return &Fixture{Ops: []Op{{
			Reps:   1,
			Run:    each(func() { q = rankingQuality(probes) }),
			Values: func() map[string]float64 { return q },
		}}}, nil
	},
}

// e12SessionQueries is the rotating query mix for the warm-QPS
// measurement on the browse world: exact entity names, short
// prefixes, class names, and relationship terms.
func e12SessionQueries(rng *rand.Rand, n int) []string {
	qs := make([]string, n)
	for i := range qs {
		switch i % 4 {
		case 0:
			qs[i] = fmt.Sprintf("N%06d", rng.Intn(2000))
		case 1:
			qs[i] = fmt.Sprintf("n%04d", rng.Intn(200)) // prefix fan-out
		case 2:
			qs[i] = fmt.Sprintf("K%d", rng.Intn(6))
		default:
			qs[i] = fmt.Sprintf("rel %02d", rng.Intn(8))
		}
	}
	return qs
}

// E12q measures warm keyword QPS on the world the E7r browsing replay
// uses.
var e12q = &Experiment{
	Name:  "E12q",
	Title: "keyword search: warm query mix on the browse world",
	Points: []Point{
		{"facts": 1000, "entities": 2000, "world": "graph(2000,1000)"},
		{"facts": 20000, "entities": 2000, "world": "graph(2000,20000)"},
	},
	Quick: 1,
	Ops:   []string{"E12_KeywordQPS"},
	Setup: func(p Point) (*Fixture, error) {
		db, _ := OnDemandWorld(p.Int("facts"))
		sr := db.Searcher()
		stats := sr.Refresh()
		queries := e12SessionQueries(rand.New(rand.NewSource(41)), 512)
		return &Fixture{Ops: []Op{{
			Reps:   2000,
			Run:    counted(func(k int) { sr.Search(queries[k%len(queries)], search.Options{}) }),
			Values: values(map[string]float64{"index_bytes": float64(stats.Bytes)}),
		}}}, nil
	},
}
