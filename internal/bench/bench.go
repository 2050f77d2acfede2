// Package bench states the experiment matrix of DESIGN.md §3 once, as
// a registry (registry.go) from which the go test -bench entry, the
// cmd/lsdb-bench tables and the lsdb-bench -json records are all
// generated. The paper (a design paper) reports no measurements;
// these experiments quantify its qualitative claims — the
// organization/retrieval trade-off, the cost of inference and
// composition, and the behaviour of retraction — on the synthetic
// worlds of internal/dataset.
//
// load.go is the separate harness behind cmd/lsdb-load.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/dataset"
	"repro/internal/fact"
	"repro/internal/ops"
	"repro/internal/probe"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/rules"
	"repro/internal/sym"
)

// Experiments is the registry, in lsdb-bench order.
var Experiments = []*Experiment{
	e1, e2, e3, e3p, e4, e5, e6, e7, e7c, e7r, e8, e8c, e9, e9s, e10, e10c, e11, e12, e12q, e12r,
}

func university(students int) dataset.UniversityConfig {
	return dataset.UniversityConfig{
		Students: students, Courses: 50, Instructors: 20, EnrollPerStudent: 3, Seed: 11,
	}
}

// relationalUniversity builds the structured twin of a university
// world: one table per relationship kind, key-indexed.
func relationalUniversity(src *lsdb.Database) *relstore.DB {
	rdb := relstore.New()
	classes, _ := rdb.Create("CLASSES", "ENTITY", "CLASS")
	enrollStudents, _ := rdb.Create("ENROLL_STUDENT", "ENROLLMENT", "STUDENT")
	enrollCourses, _ := rdb.Create("ENROLL_COURSE", "ENROLLMENT", "COURSE")
	enrollGrades, _ := rdb.Create("ENROLL_GRADE", "ENROLLMENT", "GRADE")
	teaches, _ := rdb.Create("TEACHES", "INSTRUCTOR", "COURSE")
	misc, _ := rdb.Create("MISC", "SOURCE", "REL", "TARGET")

	u := src.Universe()
	for _, f := range src.Store().Facts() {
		s, r, t := u.Name(f.S), u.Name(f.R), u.Name(f.T)
		switch r {
		case "∈":
			classes.Insert(s, t)
		case "ENROLL-STUDENT":
			enrollStudents.Insert(s, t)
		case "ENROLL-COURSE":
			enrollCourses.Insert(s, t)
		case "ENROLL-GRADE":
			enrollGrades.Insert(s, t)
		case "TEACHES":
			teaches.Insert(s, t)
		default:
			misc.Insert(s, r, t)
		}
	}
	return rdb
}

// E1 measures "find everything about entity X" — the browsing
// question of §1 — on the loosely structured store (indexed triple
// lookups over stored facts only, so the comparison is storage-level)
// versus the relational baseline (full scan, because the browser does
// not know the schema) versus the relational store with perfect
// schema knowledge.
var e1 = &Experiment{
	Name:   "E1",
	Title:  "'everything about STU-00007': triple store vs relational scan vs keyed",
	Points: sweep("students", 200, 1000, 5000),
	Quick:  2,
	Ops:    []string{"E1_Everything/neighborhood", "E1_Everything/relational_scan", "E1_Everything/relational_keyed"},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.University(university(p.Int("students")))
		rdb := relationalUniversity(db)
		st, target := db.Store(), db.Entity("STU-00007")
		return &Fixture{Ops: []Op{
			{Reps: 200, Run: each(func() {
				st.MatchAll(target, sym.None, sym.None)
				st.MatchAll(sym.None, sym.None, target)
			}), Values: values(map[string]float64{"facts": float64(st.Len())})},
			{Reps: 20, Run: each(func() { rdb.FindEverywhere("STU-00007") })},
			{Reps: 200, Run: each(func() {
				rdb.FindKnowing("ENROLL_STUDENT", 1, "STU-00007")
				rdb.FindKnowing("CLASSES", 0, "STU-00007")
			})},
		}}, nil
	},
}

// E2 measures construction and restructuring: bulk load cost, and the
// cost of introducing a new relationship kind across every student
// (trivial for the heap of facts; a schema change for the baseline).
var e2 = &Experiment{
	Name:   "E2",
	Title:  "load & restructure: loose heap vs relational schema",
	Points: sweep("students", 200, 1000, 5000),
	Quick:  2,
	Ops:    []string{"E2_Load/loose", "E2_Load/relational", "E2_Restructure/loose_add_rel_kind", "E2_Restructure/relational_add_column"},
	Setup: func(p Point) (*Fixture, error) {
		n := p.Int("students")
		cfg := university(n)
		db := dataset.University(cfg)
		rdb := relationalUniversity(db)
		return &Fixture{Ops: []Op{
			{Reps: 3, Run: each(func() { dataset.University(cfg) })},
			{Reps: 3, Run: each(func() { relationalUniversity(db) })},
			{Reps: 1, Run: counted(func(k int) {
				rel := fmt.Sprintf("ADVISOR-%d", k)
				for i := 0; i < n; i++ {
					db.MustAssert(fmt.Sprintf("STU-%05d", i), rel, "INSTR-000")
				}
			})},
			{Reps: 1, Run: counted(func(k int) {
				rdb.Table("ENROLL_STUDENT").AddColumn(fmt.Sprintf("ADVISOR-%d", k), "INSTR-000")
			})},
		}}, nil
	},
}

// E3 measures materialized-closure cost as the taxonomy deepens, with
// and without the inheritance rules, and the incremental-maintenance
// ablation: one insert folded into the cached closure by a semi-naive
// delta pass versus a full recomputation per insert.
var e3 = &Experiment{
	Name:   "E3",
	Title:  "closure cost vs taxonomy depth (branching 3, 4 members/leaf, 2 facts/class)",
	Points: sweep("depth", 2, 3, 4, 5),
	Quick:  2,
	Ops:    []string{"E3_Closure/full", "E3_Closure/no_inheritance", "E3_Closure/incremental_insert", "E3_Closure/full_per_insert"},
	Setup: func(p Point) (*Fixture, error) {
		world := func() *lsdb.Database {
			return dataset.Taxonomy(dataset.TaxonomyConfig{
				Branching: 3, Depth: p.Int("depth"), MembersPerLeaf: 4, FactsPerClass: 2, Seed: 5,
			})
		}
		db, noInherit := world(), world()
		noInherit.Engine().Exclude(rules.GenSource)
		noInherit.Engine().Exclude(rules.MemberSource)
		rebuild := func(db *lsdb.Database) func() {
			return func() {
				db.Engine().Invalidate()
				db.ClosureLen()
			}
		}
		sizes := func(db *lsdb.Database) func() map[string]float64 {
			return values(map[string]float64{"base_facts": float64(db.Len()), "closure_facts": float64(db.ClosureLen())})
		}
		return &Fixture{Ops: []Op{
			{Reps: 3, Run: each(rebuild(db)), Values: sizes(db)},
			{Reps: 3, Run: each(rebuild(noInherit)), Values: sizes(noInherit)},
			{Reps: 20, Run: counted(func(k int) {
				db.MustAssert(fmt.Sprintf("X%d", k), "in", "C0.0")
				db.ClosureLen()
			})},
			{Reps: 3, Run: counted(func(k int) {
				db.MustAssert(fmt.Sprintf("Y%d", k), "in", "C0.0")
				rebuild(db)()
			})},
		}}, nil
	},
}

// E3p compares closure materialization with sequential rounds against
// frontier-parallel rounds (one worker per GOMAXPROCS). The two builds
// produce identical closures and provenance — only build latency
// scales with workers.
var e3p = &Experiment{
	Name:   "E3p",
	Title:  "closure build: sequential vs parallel rounds (workers=max is GOMAXPROCS)",
	Points: sweep("students", 200, 1000, 5000),
	Quick:  2,
	Ops:    []string{"E3p_Closure/workers=1", "E3p_Closure/workers=max"},
	Ratios: []Ratio{{"speedup", "E3p_Closure/workers=1", "E3p_Closure/workers=max"}},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.University(university(p.Int("students")))
		eng := db.Engine()
		build := func(workers int) func(int) {
			return func(n int) {
				eng.SetWorkers(workers)
				for i := 0; i < n; i++ {
					eng.Invalidate()
					eng.Closure()
				}
			}
		}
		size := func() map[string]float64 { return map[string]float64{"closure_facts": float64(eng.ClosureSize())} }
		return &Fixture{Ops: []Op{
			{Reps: 3, Run: build(1), Values: size},
			{Reps: 3, Run: build(0), Values: size},
		}}, nil
	},
}

// E4 measures query evaluation by shape on the university world, and
// the parser on its own.
var e4 = &Experiment{
	Name:   "E4",
	Title:  "query evaluation by shape (university world)",
	Points: sweep("students", 200, 1000, 5000),
	Quick:  2,
	Ops: []string{"E4_Query/template", "E4_Query/conj3", "E4_Query/exists", "E4_Query/disjunction",
		"E4_Query/proposition", "E4_Query/parse"},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.University(dataset.UniversityConfig{
			Students: p.Int("students"), Courses: 40, Instructors: 10, EnrollPerStudent: 3, Seed: 2,
		})
		db.ClosureLen()
		const conj3 = "(?e, ENROLL-STUDENT, ?s) & (?e, ENROLL-COURSE, CS100) & (?e, ENROLL-GRADE, A)"
		var ops []Op
		for _, src := range []string{
			"(?s, in, FRESHMAN)",
			conj3,
			"exists ?e . (?e, ENROLL-STUDENT, ?s) & (?e, ENROLL-COURSE, CS105)",
			"(?s, in, FRESHMAN) | (?s, in, GRADUATE)",
			"(STU-00000, in, PERSON)",
		} {
			q, err := db.Parse(src)
			if err != nil {
				return nil, err
			}
			ops = append(ops, Op{Reps: 20, Run: each(func() { mustEval(db, q) })})
		}
		ops = append(ops, Op{Reps: 1000, Run: each(func() {
			if _, err := db.Parse("exists ?e . " + conj3); err != nil {
				panic(err)
			}
		})})
		return &Fixture{Ops: ops}, nil
	},
}

func mustEval(db *lsdb.Database, q *query.Query) {
	if _, err := db.Eval(q); err != nil {
		panic(err)
	}
}

// E5 measures the §6.1 limit(n) trade-off: composed paths found
// between a hub and a mid-rank node, and time spent, per chain limit.
var e5 = &Experiment{
	Name:   "E5",
	Title:  "composition limit(n): paths hub→node and cost (400 entities, 1600 facts)",
	Points: sweep("limit", 1, 2, 3, 4, 5),
	Quick:  3,
	Ops:    []string{"E5_Composition/paths"},
	Setup: func(p Point) (*Fixture, error) {
		db, names := dataset.Graph(dataset.GraphConfig{
			Entities: 400, Facts: 1600, Relationships: 6, Seed: 13,
		})
		db.ClosureLen()
		db.Limit(p.Int("limit"))
		src, tgt := db.Entity(names[0]), db.Entity(names[7])
		paths := 0
		return &Fixture{Ops: []Op{{
			Reps:   3,
			Run:    each(func() { paths = len(db.Composer().Paths(src, tgt)) }),
			Values: func() map[string]float64 { return map[string]float64{"paths": float64(paths)} },
		}}}, nil
	},
}

// e6Ranks are the E6 entities by Zipf rank: hub, mid and tail.
var e6Ranks = []int{0, 2, 20, 200, 1500}

// E6 measures navigation and try(e) latency against entity degree on
// the Zipf graph: the hub versus mid and tail entities, at two
// database sizes — cost should track degree, not size.
var e6 = &Experiment{
	Name:   "E6",
	Title:  "navigation and try latency vs degree (2000 entities, Zipf sources)",
	Points: sweep("facts", 2000, 20000),
	Quick:  1,
	Ops:    append(rankOps("E6_Neighborhood"), rankOps("E6_Try")...),
	Setup: func(p Point) (*Fixture, error) {
		db, names := dataset.Graph(dataset.GraphConfig{
			Entities: 2000, Facts: p.Int("facts"), Relationships: 8, Seed: 17,
		})
		db.ClosureLen()
		var navigate, try []Op
		for _, rank := range e6Ranks {
			id := db.Entity(names[rank])
			degree := values(map[string]float64{"degree": float64(db.Store().Degree(id))})
			navigate = append(navigate, Op{
				Reps:   50,
				Run:    each(func() { db.Browser().Neighborhood(id) }),
				Values: degree,
			})
			try = append(try, Op{
				Reps:   50,
				Run:    each(func() { ops.Try(db.Engine(), id) }),
				Values: degree,
			})
		}
		return &Fixture{Ops: append(navigate, try...)}, nil
	},
}

// rankOps names one op per E6 rank.
func rankOps(prefix string) []string {
	out := make([]string, len(e6Ranks))
	for i, rank := range e6Ranks {
		out[i] = fmt.Sprintf("%s/rank=%d", prefix, rank)
	}
	return out
}

// E7 compares the materialized closure against bounded on-demand
// matching for a single template query: steady-state and from-cold
// materialized lookups, and on-demand matching with the cross-query
// subgoal cache warm and disabled (cold prices the strategy per
// query; E7r measures what the cache recovers across a session).
var e7 = &Experiment{
	Name:  "E7",
	Title: "materialized closure vs on-demand bounded matching",
	Points: []Point{
		{"depth": 2, "world": "taxonomy(2,3,2,1)"},
		{"depth": 4, "world": "taxonomy(2,3,2,1)"},
		{"depth": 6, "world": "taxonomy(2,3,2,1)"},
	},
	Quick: 2,
	Ops:   []string{"E7_OnDemandBounded/warm", "E7_Materialized", "E7_MaterializationFromCold", "E7_OnDemandBounded/cold"},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.Taxonomy(dataset.TaxonomyConfig{
			Branching: 2, Depth: 3, MembersPerLeaf: 2, FactsPerClass: 1, Seed: 23,
		})
		eng := db.Engine()
		leaf := db.Entity("I-C0.0.0.0-0")
		depth := p.Int("depth")
		bounded := func() {
			eng.MatchBounded(leaf, sym.None, sym.None, depth, func(fact.Fact) bool { return true })
		}
		bounded() // prime the subgoal table for the warm op, which runs first
		return &Fixture{Ops: []Op{
			{Reps: 20, Run: each(bounded)},
			{Reps: 50, Run: each(func() { eng.MatchAll(leaf, sym.None, sym.None) })},
			{Reps: 3, Run: each(func() {
				eng.Invalidate()
				eng.MatchAll(leaf, sym.None, sym.None)
			})},
			{Reps: 5, Run: func(n int) {
				eng.SetSubgoalCache(false)
				defer eng.SetSubgoalCache(true)
				each(bounded)(n)
			}},
		}}, nil
	},
}

// E7c measures warm-closure read throughput as reader goroutines are
// added: a 3:1 mix of neighborhood template matches and Explain calls
// against a warm closure, the workload of N browsing users on an
// unchanging database. The readers share one sealed closure without
// locking, so throughput should hold (or scale with cores) rather
// than collapse under lock contention.
var e7c = &Experiment{
	Name:   "E7c",
	Title:  "warm-closure concurrent reads vs reader goroutines",
	Points: sweep("students", 200, 1000, 5000),
	Quick:  2,
	Ops: []string{"E7c_ConcurrentReads/goroutines=1", "E7c_ConcurrentReads/goroutines=2",
		"E7c_ConcurrentReads/goroutines=4", "E7c_ConcurrentReads/goroutines=8"},
	Ratios: []Ratio{
		{"vs_1_goroutine", "E7c_ConcurrentReads/goroutines=1", "E7c_ConcurrentReads/goroutines=2"},
		{"vs_1_goroutine", "E7c_ConcurrentReads/goroutines=1", "E7c_ConcurrentReads/goroutines=4"},
		{"vs_1_goroutine", "E7c_ConcurrentReads/goroutines=1", "E7c_ConcurrentReads/goroutines=8"},
	},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.University(university(p.Int("students")))
		eng := db.Engine()
		db.ClosureLen()
		target := db.Entity("STU-00007")
		derived := db.Universe().NewFact("STU-00007", "in", "PERSON")
		read := func(i int) {
			if i%4 == 3 {
				eng.Explain(derived)
			} else {
				eng.MatchAll(target, sym.None, sym.None)
			}
		}
		var ops []Op
		for _, g := range []int{1, 2, 4, 8} {
			ops = append(ops, Op{Reps: 8000, Run: parallel(g, read)})
		}
		return &Fixture{Ops: ops}, nil
	},
}

// OnDemandWorld returns the E7r world: a Zipf graph of 2000 entities
// and the given number of facts, enriched with a structural overlay —
// a relationship hierarchy, inversions, and a class taxonomy with
// memberships — so that bounded on-demand matching has real inference
// to do per query, as a browsing workload over a loosely structured
// database would. The second result is the navigation trail: hub, mid
// and tail entities by Zipf rank.
func OnDemandWorld(facts int) (*lsdb.Database, []sym.ID) {
	db, names := BrowseWorld(2000, facts)
	trail := make([]sym.ID, 0, len(e6Ranks))
	for _, rank := range e6Ranks {
		trail = append(trail, db.Entity(names[rank]))
	}
	return db, trail
}

// BrowseWorld returns the Zipf graph of the given size with
// OnDemandWorld's structural overlay, and its entity names in Zipf
// rank order (names[0] is the biggest hub). At 500 entities and 5,000
// facts it is the world of the lsdbbench end-to-end benchmark.
func BrowseWorld(entities, facts int) (*lsdb.Database, []string) {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: entities, Facts: facts, Relationships: 8, Seed: 17,
	})
	rel := func(i int) string { return fmt.Sprintf("REL-%02d", i) }
	for i := 1; i < 8; i += 2 {
		db.MustAssert(rel(i), "isa", rel(i-1))
	}
	for i := 0; i < 4; i++ {
		db.MustAssert(rel(i), "inv", fmt.Sprintf("REL-INV-%02d", i))
	}
	for j := 1; j < 6; j++ {
		db.MustAssert(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < len(names); i += 10 {
		db.MustAssert(names[i], "in", fmt.Sprintf("K%d", i%6))
	}
	return db, names
}

// replay replays one browsing session over the trail using bounded
// on-demand inference at the given depth (internal/browse navigation
// queries, never materializing the closure), returning the total
// degree retrieved.
func replay(db *lsdb.Database, depth int, trail []sym.ID) int {
	b := browse.NewOnDemand(db.Engine(), nil, depth)
	total := 0
	for _, e := range trail {
		total += b.Neighborhood(e).Degree()
	}
	return total
}

// onDemandPoints are the E7r/E10c/E11 points: the browsing world at a
// quick size and at 20k facts.
func onDemandPoints(extra Point) []Point {
	var out []Point
	for _, facts := range []int{1000, 20000} {
		p := Point{"depth": 2, "entities": 2000, "facts": facts, "trail": len(e6Ranks)}
		for k, v := range extra {
			p[k] = v
		}
		out = append(out, p)
	}
	return out
}

var subgoalCounters = []Counter{
	deltaOf("subgoal_hits", "lsdb_subgoal_hits_total"),
	deltaOf("subgoal_misses", "lsdb_subgoal_misses_total"),
	{"warm_hit_rate", func(d func(string) float64) float64 {
		h, m := d("lsdb_subgoal_hits_total"), d("lsdb_subgoal_misses_total")
		return h / (h + m)
	}},
	deltaOf("facts_scanned", "lsdb_ondemand_facts_scanned_total"),
}

// E7r quantifies the cross-query subgoal cache on a repeated browsing
// session: the navigation trail replayed warm (cache on, steady
// state), cold (cache disabled — the uncached on-demand baseline),
// and under churn (one assert between replays, invalidating the
// table each time).
var e7r = &Experiment{
	Name:     "E7r",
	Title:    "on-demand browsing session, cross-query subgoal cache",
	Points:   onDemandPoints(nil),
	Quick:    1,
	Ops:      []string{"E7_OnDemandRepeated/warm", "E7_OnDemandRepeated/cold", "E7_OnDemandInvalidationChurn"},
	Counters: subgoalCounters,
	Ratios: []Ratio{
		{"speedup_vs_cold", "E7_OnDemandRepeated/cold", "E7_OnDemandRepeated/warm"},
		{"speedup_vs_cold", "E7_OnDemandRepeated/cold", "E7_OnDemandInvalidationChurn"},
	},
	Setup: func(p Point) (*Fixture, error) {
		db, trail := OnDemandWorld(p.Int("facts"))
		eng := db.Engine()
		depth := p.Int("depth")
		session := func() { replay(db, depth, trail) }
		session() // prime the table for the warm op, which runs first
		return &Fixture{Metrics: db.Metrics(), Ops: []Op{
			{Reps: 20, Run: each(session)},
			{Reps: 3, Run: func(n int) {
				eng.SetSubgoalCache(false)
				defer eng.SetSubgoalCache(true)
				each(session)(n)
			}},
			{Reps: 5, Run: counted(func(k int) {
				db.MustAssert(fmt.Sprintf("CHURN-%d", k), "in", "K1")
				session()
			})},
		}}, nil
	},
}

// E8 measures probing along two axes. "Climb" forces a pure
// single-dimension retraction: the query (?x, ∈, LEAF) can only be
// broadened in its target position (∈ is special and never
// generalized; the source is a variable), and the only members sit at
// the root — so retraction must climb exactly `depth` waves. "Fan"
// uses a fully constant query, where retraction broadens source,
// relationship and target simultaneously; the Δ/∇ lattice then finds
// a witness within two waves but tries a wider set of queries.
var e8 = &Experiment{
	Name:  "E8",
	Title: "probing: pure climb vs multi-dimensional fan",
	Points: []Point{
		{"branching": 2, "depth": 2}, {"branching": 2, "depth": 4}, {"branching": 3, "depth": 3},
		{"branching": 2, "depth": 6}, {"branching": 4, "depth": 3},
	},
	Quick: 3,
	Ops:   []string{"E8_Probe/climb", "E8_Probe/fan"},
	Setup: func(p Point) (*Fixture, error) {
		d := p.Int("depth")
		db := dataset.Taxonomy(dataset.TaxonomyConfig{
			Branching: p.Int("branching"), Depth: d, MembersPerLeaf: 0, FactsPerClass: 1, Seed: 3,
		})
		db.MustAssert("ROOT-INSTANCE", "in", "C0")
		db.MustAssert("PROBE-X", "PROBE-REL", "C0")
		db.ClosureLen()
		leaf := "C0"
		for i := 0; i < d; i++ {
			leaf += ".0"
		}
		probeOp := func(src string) Op {
			var out *probe.Outcome
			return Op{
				Reps: 3,
				Run: each(func() {
					var err error
					if out, err = db.Probe(src); err != nil {
						panic(err)
					}
				}),
				Values: func() map[string]float64 {
					tried := 0
					for _, w := range out.Waves {
						tried += len(w.Entries)
					}
					return map[string]float64{"waves": float64(len(out.Waves)), "tried": float64(tried)}
				},
			}
		}
		return &Fixture{Ops: []Op{
			probeOp(fmt.Sprintf("(?x, in, %s)", leaf)),
			probeOp(fmt.Sprintf("(PROBE-X, PROBE-REL, %s)", leaf)),
		}}, nil
	},
}

// E8c measures commit throughput under the durability log's sync
// policies: eight concurrent writers assert on a logged database;
// under SyncAlways the group-commit leader amortizes fsyncs across
// queued committers, which fsyncs/op shows.
var e8c = &Experiment{
	Name:   "E8c",
	Title:  "commit throughput per sync policy (8 concurrent writers)",
	Points: []Point{{"policy": "always", "writers": 8}, {"policy": "interval2ms", "writers": 8}, {"policy": "never", "writers": 8}},
	Quick:  3,
	Ops:    []string{"E8_CommitThroughput"},
	Counters: []Counter{{"fsyncs/op", func(d func(string) float64) float64 {
		return d("lsdb_wal_fsyncs_total") / d("lsdb_wal_appends_total")
	}}},
	Setup: func(p Point) (*Fixture, error) {
		policy := map[any]lsdb.SyncPolicy{
			"always":      lsdb.SyncAlways,
			"interval2ms": lsdb.SyncInterval(2 * time.Millisecond),
			"never":       lsdb.SyncNever,
		}[p["policy"]]
		dir, err := os.MkdirTemp("", "lsdb-bench-e8")
		if err != nil {
			return nil, err
		}
		db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, "e8.log"), SyncPolicy: policy})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		var ctr atomic.Uint64
		return &Fixture{
			Metrics: db.Metrics(),
			Ops: []Op{{Reps: 2000, Run: parallel(p.Int("writers"), func(int) {
				if err := db.Assert(fmt.Sprintf("E8-%d", ctr.Add(1)), "in", "BENCH"); err != nil {
					panic(err)
				}
			})}},
			Close: func() {
				db.Close()
				os.RemoveAll(dir)
			},
		}, nil
	},
}

// E9 measures the integrity-check and strict-insert cost as
// constraints accumulate. A strict insert evaluates the hypothetical
// closure off to the side, so it writes nothing to the base store.
var e9 = &Experiment{
	Name:     "E9",
	Title:    "integrity: full Check and strict insert vs constraint count (employment world)",
	Points:   sweep("constraints", 0, 2, 8),
	Quick:    2,
	Ops:      []string{"E9_Integrity/check", "E9_Integrity/strict_insert"},
	Counters: []Counter{deltaOf("base_inserts", `lsdb_store_mutations_total{op="insert"}`)},
	Setup: func(p Point) (*Fixture, error) {
		db := dataset.Employment(300, 7)
		for i := 0; i < p.Int("constraints"); i++ {
			src := fmt.Sprintf("(?x, in, EMPLOYEE) & (?x, EARNS, ?y) => (?x, CHECKED-%d, ?y)", i)
			if err := db.AddConstraint(fmt.Sprintf("c%d", i), src); err != nil {
				return nil, err
			}
		}
		db.ClosureLen()
		f := db.Universe().NewFact("EMP-XX", "EARNS", "$30000")
		return &Fixture{Metrics: db.Metrics(), Ops: []Op{
			{Reps: 3, Run: each(func() { db.Check() })},
			{Reps: 3, Run: each(func() { db.Engine().WouldViolate(f) })},
		}}, nil
	},
}

// E10 measures durability: log append throughput (a batch of facts
// then a sync), snapshot write and log recovery time.
var e10 = &Experiment{
	Name:   "E10",
	Title:  "durability: log append, snapshot, recovery",
	Points: sweep("facts", 1000, 5000, 10000, 50000),
	Quick:  1,
	Ops:    []string{"E10_Durability/append_sync", "E10_Durability/snapshot", "E10_Durability/recovery"},
	Setup: func(p Point) (*Fixture, error) {
		n := p.Int("facts")
		fill := func(db *lsdb.Database, prefix string) {
			for i := 0; i < n; i++ {
				db.MustAssert(fmt.Sprintf("%s%06d", prefix, i), "REL", fmt.Sprintf("V%06d", i%997))
			}
		}
		dir, err := os.MkdirTemp("", "lsdb-bench-e10")
		if err != nil {
			return nil, err
		}
		recoverLog := filepath.Join(dir, "recover.log")
		rdb, err := lsdb.Open(lsdb.Options{LogPath: recoverLog, SyncPolicy: lsdb.SyncNever})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		fill(rdb, "E")
		if err := rdb.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		adb, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, "append.log")})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		sdb := lsdb.New()
		fill(sdb, "E")
		snapPath := filepath.Join(dir, "db.snap")
		recovered := 0
		return &Fixture{
			Ops: []Op{
				{Reps: 1, Run: counted(func(k int) {
					fill(adb, fmt.Sprintf("A%d-", k))
					if err := adb.Sync(); err != nil {
						panic(err)
					}
				})},
				{Reps: 1, Run: each(func() {
					if err := sdb.SaveSnapshot(snapPath); err != nil {
						panic(err)
					}
				})},
				{Reps: 1, Run: each(func() {
					db, err := lsdb.Open(lsdb.Options{LogPath: recoverLog})
					if err != nil {
						panic(err)
					}
					recovered = db.Len()
					db.Close()
				}), Values: func() map[string]float64 { return map[string]float64{"recovered_facts": float64(recovered)} }},
			},
			Close: func() {
				adb.Close()
				os.RemoveAll(dir)
			},
		}, nil
	},
}

// pickUnrelatedRelation interns candidate relationship-class names
// until it finds one whose dependency bit misses every narrow entry
// in the engine's warm subgoal table; writes through that class are
// then provably unrelated to the warm working set (only wildcard
// entries can evict). The table must be primed before calling. The
// fallback (all 256 candidates colliding) is astronomically unlikely
// but keeps the benchmark running either way.
func pickUnrelatedRelation(db *lsdb.Database) string {
	used, _, _ := db.Engine().CacheDepProfile()
	name := "E10C-NOISE-0"
	for i := 0; i < 256; i++ {
		name = fmt.Sprintf("E10C-NOISE-%d", i)
		if rules.DepBit(db.Entity(name))&used == 0 {
			break
		}
	}
	return name
}

// tailDataEdges returns the stored REL-06 edges of the OnDemandWorld
// graph in canonical order. REL-06 participates in no inversion and
// no relationship generalization, so retracting one of its edges has
// a small, local cone — the single-retraction repair scenario.
// (Retracting a *membership* in this dense world cascades through
// inheritance past the half-closure bound and correctly falls back to
// a full rebuild.)
func tailDataEdges(db *lsdb.Database) []fact.Fact {
	var edges []fact.Fact
	db.Store().Match(sym.None, db.Entity("REL-06"), sym.None, func(f fact.Fact) bool {
		edges = append(edges, f)
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].S != edges[j].S {
			return edges[i].S < edges[j].S
		}
		return edges[i].T < edges[j].T
	})
	return edges
}

// E10c measures dependency-tracked cache invalidation and incremental
// closure maintenance on the browsing world: warm replay baseline,
// replay under a sustained write stream that never touches the
// predicates the warm subgoals read (hit rate must stay high), replay
// under ∈-class writes every entry depends on (the
// pre-dependency-tracking worst case), and finally a full closure
// build against the repair cost of retracting a single base fact via
// delete propagation.
var e10c = &Experiment{
	Name:   "E10c",
	Title:  "dependency-tracked eviction + delete propagation",
	Points: onDemandPoints(Point{"noise_class": nil, "retractions": 1}), // noise_class is picked by Setup
	Quick:  1,
	Ops: []string{"E10c_WarmReplay", "E10c_UnrelatedWriteChurn", "E10c_RelatedWriteChurn",
		"E10c_FullBuild", "E10c_DeleteMaintenance"},
	Counters: append(append([]Counter{}, subgoalCounters...),
		deltaOf("delete_rebuilds", `lsdb_rules_rebuilds_total{kind="delete"}`),
		deltaOf("delete_propagations", "lsdb_closure_delete_propagations_total"),
		deltaOf("full_rebuilds", `lsdb_rules_rebuilds_total{kind="full"}`),
	),
	Setup: func(p Point) (*Fixture, error) {
		db, trail := OnDemandWorld(p.Int("facts"))
		depth := p.Int("depth")
		session := func() { replay(db, depth, trail) }
		session() // prime
		noise := pickUnrelatedRelation(db)
		churn := func(rel string) func(int) {
			return counted(func(k int) {
				db.MustAssert(fmt.Sprintf("E10C-W-%s-%d", rel, k), rel, "E10C-SINK")
				session()
			})
		}
		edges := tailDataEdges(db)
		return &Fixture{
			Params:  Point{"noise_class": noise},
			Metrics: db.Metrics(),
			Ops: []Op{
				{Reps: 20, Run: each(session)},
				{Reps: 20, Run: churn(noise)},
				{Reps: 20, Run: churn("in")},
				{Reps: 1, Run: each(func() {
					db.Engine().Invalidate()
					db.ClosureLen()
				})},
				{Reps: 1, Run: counted(func(k int) {
					e := edges[k]
					db.Retract(db.Name(e.S), "REL-06", db.Name(e.T))
					db.ClosureLen()
				})},
			},
		}, nil
	},
}
