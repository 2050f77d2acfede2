package check

// Sealed-vs-mutable differential oracles. A sealed store answers the
// read interface from a compressed posting-list index
// (store/postings.go) instead of six hash indexes, and may hold it as
// a stack of disjoint segments grown by Extend (store/segments.go);
// these oracles demand that neither is visible: every template class,
// every count, every estimate, and every whole-store view must answer
// identically from the mutable store, the single-segment sealed store
// and any segment stack over the same facts.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/sym"
)

// sealedProbeCap bounds the anchor sample per world so the oracle
// stays linear in store size (the full probe grid is cubic).
const sealedProbeCap = 100

// compareStores runs the full read-interface comparison between a
// reference store (mutable, or a single-segment sealed store) and a
// sealed counterpart over every template class. Both stores must
// share one universe. name labels failures.
func compareStores(u *fact.Universe, mut, sealed *store.Store, name string) *Failure {
	fail := func(format string, args ...any) *Failure {
		return &Failure{Oracle: "sealed-vs-mutable", Detail: name + ": " + fmt.Sprintf(format, args...)}
	}
	if mut.Len() != sealed.Len() {
		return fail("Len %d != %d", mut.Len(), sealed.Len())
	}

	// Anchors: a deterministic sample of stored entities and all
	// relations, plus entities that exist only in the universe (absent
	// from the store) and the wildcard.
	ents := mut.Entities()
	step := 1
	if len(ents) > sealedProbeCap {
		step = len(ents) / sealedProbeCap
	}
	anchors := []sym.ID{sym.None, u.Intern("SEALED-ORACLE-ABSENT")}
	for i := 0; i < len(ents); i += step {
		anchors = append(anchors, ents[i])
	}
	rels := []sym.ID{sym.None, u.Intern("SEALED-ORACLE-NOREL")}
	for _, rs := range mut.Relationships() {
		rels = append(rels, rs.Rel)
	}

	// Every template class: (S|·, R|·, T|·) over the anchor grid.
	for _, s := range anchors {
		for _, r := range rels {
			for _, t := range anchors {
				wantAll := mut.MatchAll(s, r, t)
				gotAll := sealed.MatchAll(s, r, t)
				if len(wantAll) != len(gotAll) {
					return fail("MatchAll(%s,%s,%s): %d facts mutable, %d sealed",
						u.Name(s), u.Name(r), u.Name(t), len(wantAll), len(gotAll))
				}
				seen := make(map[fact.Fact]bool, len(wantAll))
				for _, f := range wantAll {
					seen[f] = true
				}
				for _, f := range gotAll {
					if !seen[f] {
						return fail("MatchAll(%s,%s,%s): sealed has extra %v",
							u.Name(s), u.Name(r), u.Name(t), f)
					}
				}
				if mc, sc := mut.Count(s, r, t), sealed.Count(s, r, t); mc != sc {
					return fail("Count(%s,%s,%s): %d != %d", u.Name(s), u.Name(r), u.Name(t), mc, sc)
				}
				if me, se := mut.EstimateCount(s, r, t), sealed.EstimateCount(s, r, t); me != se {
					return fail("EstimateCount(%s,%s,%s): %d != %d", u.Name(s), u.Name(r), u.Name(t), me, se)
				}
			}
		}
	}

	// Membership agreement for every stored fact plus perturbations,
	// and the sealed whole-fact view against the reference.
	for _, f := range sealed.Facts() {
		if !mut.Has(f) {
			return fail("sealed Facts has extra %v", f)
		}
	}
	for i, f := range mut.Facts() {
		if !sealed.Has(f) {
			return fail("sealed missing stored fact %v", f)
		}
		if i%7 == 0 {
			g := fact.Fact{S: f.T, R: f.R, T: f.S} // often absent
			if mut.Has(g) != sealed.Has(g) {
				return fail("Has(%v) disagrees", g)
			}
		}
	}

	// Whole-store views.
	me, se := mut.Entities(), sealed.Entities()
	if len(me) != len(se) {
		return fail("Entities %d != %d", len(me), len(se))
	}
	for i := range me {
		if me[i] != se[i] {
			return fail("Entities[%d]: %s != %s", i, u.Name(me[i]), u.Name(se[i]))
		}
	}
	mr, sr := mut.Relationships(), sealed.Relationships()
	if fmt.Sprint(mr) != fmt.Sprint(sr) {
		return fail("Relationships %v != %v", mr, sr)
	}
	for _, id := range anchors {
		if id == sym.None {
			continue
		}
		if mut.Degree(id) != sealed.Degree(id) {
			return fail("Degree(%s): %d != %d", u.Name(id), mut.Degree(id), sealed.Degree(id))
		}
		if mut.HasEntity(id) != sealed.HasEntity(id) {
			return fail("HasEntity(%s) disagrees", u.Name(id))
		}
	}
	if st := sealed.IndexStats(); st.Facts != sealed.Len() {
		return fail("IndexStats.Facts %d != Len %d", st.Facts, sealed.Len())
	}
	return nil
}

// segmentStack grows a sealed store through Extend from fs split into
// random disjoint batches. Odd draws cut at random points, so tier
// merges fire irregularly; even draws give each batch 4/5 of the
// remainder, a shape no merge touches, so the stack keeps one segment
// per batch.
func segmentStack(u *fact.Universe, fs []fact.Fact, rng *rand.Rand) *store.Store {
	fs = slices.Clone(fs)
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	var cuts []int
	if rng.Intn(2) == 0 {
		for i := len(fs) / 5; i > 0; i /= 5 {
			cuts = append(cuts, len(fs)-i)
		}
	} else {
		for k := 1 + rng.Intn(7); k > 0; k-- {
			cuts = append(cuts, rng.Intn(len(fs)+1))
		}
		slices.Sort(cuts)
	}
	cuts = append(cuts, len(fs))
	st := store.SealedFromFacts(u, slices.Clone(fs[:cuts[0]]))
	for i := 1; i < len(cuts); i++ {
		st = st.Extend(slices.Clone(fs[cuts[i-1]:cuts[i]]))
	}
	return st
}

// compareStack checks a segment stack over the reference's facts
// against both the mutable reference and the single-segment store
// SealedFromFacts builds over the union, and checks that compacting
// the stack reproduces that single segment.
func compareStack(u *fact.Universe, mut, stack *store.Store, name string) *Failure {
	flat := store.SealedFromFacts(u, mut.Facts())
	if f := compareStores(u, mut, stack, name+" stack"); f != nil {
		return f
	}
	if f := compareStores(u, flat, stack, name+" stack vs single segment"); f != nil {
		return f
	}
	c := stack.Compact()
	if c.Segments() != 1 || c.IndexStats() != flat.IndexStats() || !slices.Equal(c.Facts(), flat.Facts()) {
		return &Failure{Oracle: "sealed-vs-mutable", Detail: fmt.Sprintf(
			"%s: compacted %d-segment stack differs from SealedFromFacts (%+v vs %+v)",
			name, stack.Segments(), c.IndexStats(), flat.IndexStats())}
	}
	return nil
}

// SealedVsMutable checks that the sealed forms are invisible to
// readers on both stores a world carries: the base store (mutable vs
// its sealed twin and vs a segment stack of its facts) and the
// closure store (published sealed vs a mutable twin, and the
// published store's single segment).
func SealedVsMutable(w *gen.World) *Failure {
	db := w.Build()
	u := db.Universe()
	rng := rand.New(rand.NewSource(w.Seed))

	base := db.Store()
	if f := compareStores(u, base, store.SealedFromFacts(u, base.Facts()), "base"); f != nil {
		return f
	}
	if base.Len() > 0 {
		if f := compareStack(u, base, segmentStack(u, base.Facts(), rng), "base"); f != nil {
			return f
		}
	}

	closure := db.Engine().Closure() // published sealed
	if n := closure.Segments(); n != 1 {
		return &Failure{Oracle: "sealed-vs-mutable", Detail: fmt.Sprintf("published closure has %d segments", n)}
	}
	mutClosure := store.New(u)
	mutClosure.InsertAll(closure.Facts())
	return compareStores(u, mutClosure, closure, "closure")
}

// SealedVsMutableScale is the memory-scale variant: a Zipf world bulk
// loaded through store.SealedFromFacts versus the same facts replayed
// through the mutable insert path, probed by concurrent readers (run
// under -race this also exercises the sealed index's lock-free read
// claim). cfg.Facts defaults per gen.ScaleConfig; a million-entity
// run is LSDB_SCALE_FACTS=1000000 away (see make check-scale).
func SealedVsMutableScale(cfg gen.ScaleConfig) *Failure {
	cfg = cfg.Normalized()
	u := fact.NewUniverse()
	sealed := gen.BuildScaleStore(u, cfg)
	mut := gen.BuildScaleMutable(u, cfg)
	stack := segmentStack(u, sealed.Facts(), rand.New(rand.NewSource(cfg.Seed)))

	name := fmt.Sprintf("scale(%d)", cfg.Facts)
	if f := compareStores(u, mut, sealed, name); f != nil {
		return f
	}
	if f := compareStack(u, mut, stack, name); f != nil {
		return f
	}

	// Concurrent probe goroutines over disjoint fact ranges: readers
	// must agree with the mutable reference while sharing the sealed
	// index and the segment stack without locks.
	workers := min(4, runtime.GOMAXPROCS(0))
	if workers < 2 {
		workers = 2
	}
	facts := sealed.Facts()
	var wg sync.WaitGroup
	fails := make([]*Failure, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				if fails[g] == nil {
					fails[g] = &Failure{
						Oracle: "sealed-vs-mutable",
						Detail: fmt.Sprintf("scale concurrent reader %d: ", g) + fmt.Sprintf(format, args...),
					}
				}
			}
			for i := g; i < len(facts); i += workers * 97 {
				f := facts[i]
				for _, st := range []struct {
					name string
					s    *store.Store
				}{{"sealed", sealed}, {"stack", stack}} {
					if !st.s.Has(f) {
						fail("%s lost %v", st.name, f)
						return
					}
					if mut.Count(sym.None, f.R, f.T) != st.s.Count(sym.None, f.R, f.T) {
						fail("%s Count(·,%s,%s) disagrees", st.name, u.Name(f.R), u.Name(f.T))
						return
					}
					if mut.EstimateCount(f.S, f.R, sym.None) != st.s.EstimateCount(f.S, f.R, sym.None) {
						fail("%s EstimateCount(%s,%s,·) disagrees", st.name, u.Name(f.S), u.Name(f.R))
						return
					}
					if len(mut.MatchAll(f.S, sym.None, f.T)) != len(st.s.MatchAll(f.S, sym.None, f.T)) {
						fail("%s MatchAll(%s,·,%s) disagrees", st.name, u.Name(f.S), u.Name(f.T))
						return
					}
					if mut.Degree(f.T) != st.s.Degree(f.T) || !st.s.HasEntity(f.R) {
						fail("%s Degree/HasEntity disagree at %v", st.name, f)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fails {
		if f != nil {
			return f
		}
	}
	return nil
}
