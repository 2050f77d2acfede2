package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/fact"
	"repro/internal/sym"
)

// sortedTriples canonicalizes a result set for comparison.
func sortedTriples(fs []fact.Fact) []fact.Fact {
	out := append([]fact.Fact(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.R != b.R {
			return a.R < b.R
		}
		return a.T < b.T
	})
	return out
}

func sameFactSet(a, b []fact.Fact) bool {
	sa, sb := sortedTriples(a), sortedTriples(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// randomWorld inserts n random facts over small domains (guaranteeing
// bucket collisions in every index) and returns the store.
func randomWorld(u *fact.Universe, rng *rand.Rand, n int) *Store {
	s := New(u)
	for i := 0; i < n; i++ {
		s.Insert(fact.Fact{
			S: u.Intern(fmt.Sprintf("E%d", rng.Intn(40))),
			R: u.Intern(fmt.Sprintf("R%d", rng.Intn(6))),
			T: u.Intern(fmt.Sprintf("E%d", rng.Intn(40))),
		})
	}
	return s
}

// TestSealedPostingsEquivalence compares every template class between
// a mutable store and its sealed (posting-list) clone on random
// worlds: Match, MatchAll, Count, EstimateCount, Has, plus the
// whole-store views (Len, Entities, Relationships, Degree).
func TestSealedPostingsEquivalence(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(42))
	mut := randomWorld(u, rng, 600)
	sealed := SealedFromFacts(u, mut.Facts())

	if mut.Len() != sealed.Len() {
		t.Fatalf("Len: mutable %d, sealed %d", mut.Len(), sealed.Len())
	}
	probes := []sym.ID{sym.None}
	for i := 0; i < 12; i++ {
		probes = append(probes, u.Intern(fmt.Sprintf("E%d", rng.Intn(45)))) // some absent
	}
	rels := []sym.ID{sym.None, u.Intern("R0"), u.Intern("R3"), u.Intern("RMISSING")}
	for _, s := range probes {
		for _, r := range rels {
			for _, tt := range probes {
				wantAll := mut.MatchAll(s, r, tt)
				gotAll := sealed.MatchAll(s, r, tt)
				if !sameFactSet(wantAll, gotAll) {
					t.Fatalf("MatchAll(%d,%d,%d): mutable %d facts, sealed %d", s, r, tt, len(wantAll), len(gotAll))
				}
				if mc, sc := mut.Count(s, r, tt), sealed.Count(s, r, tt); mc != sc {
					t.Fatalf("Count(%d,%d,%d): mutable %d, sealed %d", s, r, tt, mc, sc)
				}
				if me, se := mut.EstimateCount(s, r, tt), sealed.EstimateCount(s, r, tt); me != se {
					t.Fatalf("EstimateCount(%d,%d,%d): mutable %d, sealed %d", s, r, tt, me, se)
				}
			}
		}
	}
	for _, f := range mut.Facts() {
		if !sealed.Has(f) {
			t.Fatalf("sealed store missing %v", f)
		}
	}
	if !sealed.Has(u.NewFact("E0", "R0", "E1")) == mut.Has(u.NewFact("E0", "R0", "E1")) {
		t.Fatal("Has disagreement on probe fact")
	}
	me, se := mut.Entities(), sealed.Entities()
	if len(me) != len(se) {
		t.Fatalf("Entities: mutable %d, sealed %d", len(me), len(se))
	}
	for i := range me {
		if me[i] != se[i] {
			t.Fatalf("Entities[%d]: %d vs %d", i, me[i], se[i])
		}
	}
	mr, sr := mut.Relationships(), sealed.Relationships()
	if fmt.Sprint(mr) != fmt.Sprint(sr) {
		t.Fatalf("Relationships: %v vs %v", mr, sr)
	}
	for _, id := range probes[1:] {
		if mut.Degree(id) != sealed.Degree(id) {
			t.Fatalf("Degree(%d): mutable %d, sealed %d", id, mut.Degree(id), sealed.Degree(id))
		}
		if mut.HasEntity(id) != sealed.HasEntity(id) {
			t.Fatalf("HasEntity(%d) disagrees", id)
		}
	}
}

// TestMatchAllSealedPostingBucket mirrors TestMatchAllSealedSharesBucket
// for the posting-backed patterns (RT, ST, R, T): the materialized
// result must be exact-size (len == cap) so a caller append reallocates
// instead of clobbering anything, and a second query must see the
// original facts.
func TestMatchAllSealedPostingBucket(t *testing.T) {
	u, s := mk(t)
	for i := 0; i < 4; i++ {
		s.Insert(u.NewFact(fmt.Sprintf("s%d", i), "R", "HUB"))
	}
	s = SealedFromFacts(u, s.Facts())
	shapes := []struct {
		name    string
		s, r, t sym.ID
	}{
		{"RT", sym.None, u.Entity("R"), u.Entity("HUB")},
		{"T", sym.None, sym.None, u.Entity("HUB")},
		{"R", sym.None, u.Entity("R"), sym.None},
		{"ST", u.Entity("s1"), sym.None, u.Entity("HUB")},
	}
	for _, sh := range shapes {
		got := s.MatchAll(sh.s, sh.r, sh.t)
		if len(got) == 0 {
			t.Fatalf("%s: empty result", sh.name)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: capacity %d > length %d: append would clobber shared memory", sh.name, cap(got), len(got))
		}
		before := append([]fact.Fact(nil), got...)
		_ = append(got, fact.Fact{S: 999, R: 999, T: 999})
		again := s.MatchAll(sh.s, sh.r, sh.t)
		if !sameFactSet(before, again) {
			t.Fatalf("%s: result changed after caller append: %v vs %v", sh.name, before, again)
		}
	}
	// The all-wildcard zero-copy view gets the same clip treatment.
	all := s.MatchAll(sym.None, sym.None, sym.None)
	if cap(all) != len(all) {
		t.Fatalf("all-wildcard: capacity %d > length %d", cap(all), len(all))
	}
	_ = append(all, fact.Fact{S: 999, R: 999, T: 999})
	if s.Len() != 4 {
		t.Fatalf("store length changed to %d after append to all-wildcard view", s.Len())
	}
}

// TestSealedConcurrentReaders hammers one sealed index — a single
// segment, then a segment stack — from many goroutines mixing every
// read entry point; run under -race this proves the frozen postings
// are safely shareable without locks.
func TestSealedConcurrentReaders(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(7))
	fs := randomWorld(u, rng, 2000).Facts()
	// Each batch is 4/5 of what remains: sizes shrink by more than
	// tierRatio, so no merge fires and the stack keeps every batch.
	lo := len(fs) * 4 / 5
	stack := SealedFromFacts(u, slices.Clone(fs[:lo]))
	for lo < len(fs) {
		hi := lo + max((len(fs)-lo)*4/5, 1)
		stack = stack.Extend(slices.Clone(fs[lo:hi]))
		lo = hi
	}
	if stack.Segments() < 4 {
		t.Fatalf("stack has %d segments", stack.Segments())
	}
	for _, s := range []*Store{SealedFromFacts(u, fs), stack} {
		concurrentReads(t, u, s)
	}
}

func concurrentReads(t *testing.T, u *fact.Universe, s *Store) {
	want := s.Len()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				e := u.Intern(fmt.Sprintf("E%d", r.Intn(40)))
				rel := u.Intern(fmt.Sprintf("R%d", r.Intn(6)))
				switch i % 6 {
				case 0:
					s.Match(e, sym.None, sym.None, func(fact.Fact) bool { return true })
				case 1:
					if got := s.MatchAll(sym.None, rel, e); len(got) != s.Count(sym.None, rel, e) {
						t.Errorf("MatchAll/Count mismatch")
						return
					}
				case 2:
					s.Has(fact.Fact{S: e, R: rel, T: e})
				case 3:
					s.EstimateCount(sym.None, rel, sym.None)
				case 4:
					s.Degree(e)
				case 5:
					if s.Len() != want {
						t.Errorf("Len changed under readers")
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSealedFromFacts checks the bulk-load constructor against the
// mutable store it was loaded from and against the same facts grown
// as a segment stack and compacted, including duplicate collapsing.
func TestSealedFromFacts(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(11))
	mut := randomWorld(u, rng, 300)
	fs := mut.Facts()
	half := len(fs) / 2
	stacked := SealedFromFacts(u, slices.Clone(fs[:half])).Extend(slices.Clone(fs[half:])).Compact()
	fs = append(fs, fs[0], fs[10], fs[20]) // duplicates must collapse
	bulk := SealedFromFacts(u, fs)

	if bulk.Len() != mut.Len() {
		t.Fatalf("Len: bulk %d, mutable %d", bulk.Len(), mut.Len())
	}
	if !bulk.Sealed() {
		t.Fatal("SealedFromFacts store not sealed")
	}
	if !sameFactSet(bulk.Facts(), mut.Facts()) {
		t.Fatal("fact sets differ")
	}
	is, ms := bulk.IndexStats(), stacked.IndexStats()
	if is != ms {
		t.Fatalf("IndexStats differ: bulk %+v, sealed %+v", is, ms)
	}
	if is.Facts != bulk.Len() || is.Buckets() == 0 || is.PostingBytes == 0 {
		t.Fatalf("implausible IndexStats %+v", is)
	}
	if v := bulk.Version(); v != uint64(bulk.Len()) {
		t.Fatalf("bulk version %d, want %d", v, bulk.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mutation of SealedFromFacts store did not panic")
			}
		}()
		bulk.Insert(u.NewFact("X", "Y", "Z"))
	}()
}

// TestCompactIdempotent: compacting a single-segment store returns it
// unchanged, and a compacted stack compacts to itself.
func TestCompactIdempotent(t *testing.T) {
	u := fact.NewUniverse()
	var base []fact.Fact
	for i := 0; i < 2*tierRatio; i++ {
		base = append(base, u.NewFact(fmt.Sprintf("A%d", i), "R", "B"))
	}
	s := SealedFromFacts(u, base)
	if s.Compact() != s {
		t.Fatal("Compact of a single-segment store rebuilt it")
	}
	st := s.Extend([]fact.Fact{u.NewFact("C", "R", "B")})
	if st.Segments() != 2 {
		t.Fatalf("Extend by a small batch gave %d segments, want 2", st.Segments())
	}
	c := st.Compact()
	if c.Segments() != 1 || c.Compact() != c || c.Len() != len(base)+1 {
		t.Fatalf("compacted stack: %d segments, Len %d", c.Segments(), c.Len())
	}
	if s.Len() != len(base) || s.Segments() != 1 || st.Segments() != 2 {
		t.Fatal("Extend or Compact changed its receiver")
	}
}

// TestSealedMutableRoundTrip: a sealed store's facts copied into a
// mutable store, mutated there, and sealed again must behave like a
// fresh store, leaving the original sealed store untouched.
func TestSealedMutableRoundTrip(t *testing.T) {
	u := fact.NewUniverse()
	rng := rand.New(rand.NewSource(3))
	want := randomWorld(u, rng, 200).Facts()
	s := SealedFromFacts(u, slices.Clone(want))
	c := New(u)
	c.InsertAll(s.Facts())
	if !sameFactSet(c.Facts(), want) {
		t.Fatal("mutable copy lost facts")
	}
	extra := u.NewFact("NEW", "REL", "TGT")
	if !c.Insert(extra) {
		t.Fatal("mutable copy refused insert")
	}
	r := SealedFromFacts(u, c.Facts())
	if !r.Has(extra) || r.Len() != len(want)+1 {
		t.Fatal("re-sealed copy wrong")
	}
	if s.Has(extra) {
		t.Fatal("original sealed store changed")
	}
}

// TestUvarintRunCodec pins the exported posting-run codec shared with
// the keyword search index: round trip, early stop, and the delta
// property that ascending runs with small gaps stay ~1 byte/element.
func TestUvarintRunCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		run := make([]uint32, 0, n)
		cur := uint32(0)
		for i := 0; i < n; i++ {
			cur += uint32(rng.Intn(1000)) + 1
			run = append(run, cur)
		}
		enc := AppendUvarintRun(nil, run)
		got := DecodeUvarintRun(enc, uint32(len(run)), nil)
		if len(got) != len(run) {
			t.Fatalf("trial %d: decoded %d ids, want %d", trial, len(got), len(run))
		}
		for i := range run {
			if got[i] != run[i] {
				t.Fatalf("trial %d: id[%d] = %d, want %d", trial, i, got[i], run[i])
			}
		}
		// Early stop: the streaming decoder honors fn returning false.
		seen := 0
		complete := EachUvarintRun(enc, uint32(len(run)), func(uint32) bool {
			seen++
			return seen < 3
		})
		if len(run) >= 3 && (complete || seen != 3) {
			t.Fatalf("trial %d: early stop saw %d (complete=%v)", trial, seen, complete)
		}
	}
	// Dense ascending runs encode at one byte per element after the head.
	dense := make([]uint32, 1000)
	for i := range dense {
		dense[i] = uint32(1<<20) + uint32(i)
	}
	enc := AppendUvarintRun(nil, dense)
	if len(enc) > len(dense)+4 {
		t.Fatalf("dense run encoded to %d bytes, want ≤ %d", len(enc), len(dense)+4)
	}
}

// referencePostings is the comparison-sort posting builder the linear
// one replaced: sort the facts, then per index collect every key's ID
// list in a map of slices and encode the keys in sorted order. It is
// kept as the oracle that buildPostings must reproduce byte for byte.
func referencePostings(fs []fact.Fact) *postings {
	sort.Slice(fs, func(i, j int) bool { return fact.Compare(fs[i], fs[j]) < 0 })
	fs = dedupFacts(fs)
	p := &postings{facts: fs, byS: make(map[sym.ID]span), bySR: make(map[pair]span)}
	for i := 0; i < len(fs); {
		s := fs[i].S
		j := i
		for j < len(fs) && fs[j].S == s {
			r := fs[j].R
			k := j
			for k < len(fs) && fs[k].S == s && fs[k].R == r {
				k++
			}
			p.bySR[pair{s, r}] = span{uint32(j), uint32(k)}
			j = k
		}
		p.byS[s] = span{uint32(i), uint32(j)}
		i = j
	}
	idLess := func(a, b sym.ID) bool { return a < b }
	pairLess := func(a, b pair) bool { return a.a < b.a || (a.a == b.a && a.b < b.b) }
	p.byR = referenceRuns(p, func(f fact.Fact) sym.ID { return f.R }, idLess)
	p.byT = referenceRuns(p, func(f fact.Fact) sym.ID { return f.T }, idLess)
	p.byRT = referenceRuns(p, func(f fact.Fact) pair { return pair{f.R, f.T} }, pairLess)
	p.byST = referenceRuns(p, func(f fact.Fact) pair { return pair{f.S, f.T} }, pairLess)
	return p
}

func referenceRuns[K comparable](p *postings, keyOf func(fact.Fact) K, less func(K, K) bool) map[K]plist {
	ids := make(map[K][]uint32)
	for i, f := range p.facts {
		ids[keyOf(f)] = append(ids[keyOf(f)], uint32(i))
	}
	keys := make([]K, 0, len(ids))
	for k := range ids {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	out := make(map[K]plist, len(ids))
	for _, k := range keys {
		out[k] = p.appendRun(ids[k])
	}
	return out
}

// samePostings reports the first difference between two indexes:
// fact arrays, span maps, posting maps and arena bytes.
func samePostings(got, want *postings) string {
	switch {
	case !slices.Equal(got.facts, want.facts):
		return "facts"
	case !maps.Equal(got.byS, want.byS):
		return "byS"
	case !maps.Equal(got.bySR, want.bySR):
		return "bySR"
	case !maps.Equal(got.byR, want.byR):
		return "byR"
	case !maps.Equal(got.byT, want.byT):
		return "byT"
	case !maps.Equal(got.byRT, want.byRT):
		return "byRT"
	case !maps.Equal(got.byST, want.byST):
		return "byST"
	case !bytes.Equal(got.enc, want.enc):
		return "enc"
	}
	return ""
}

// fuzzFacts decodes a fuzz input into facts: the first byte picks the
// ID width (dense one-byte IDs, or sparse IDs spread over the uint32
// range), the rest is read as (S, R, T) triples. Inputs are capped at
// 64 facts, which keeps the fuzzer's minimization of new inputs short;
// TestBuildPostingsMatchesReference covers large worlds.
func fuzzFacts(data []byte) []fact.Fact {
	if len(data) == 0 {
		return nil
	}
	sparse := data[0]&1 == 1
	data = data[1:min(len(data), 1+3*64)]
	id := func(b byte) sym.ID {
		if sparse {
			return sym.ID(b)<<24 | sym.ID(b) + 1
		}
		return sym.ID(b%32) + 1
	}
	var fs []fact.Fact
	for ; len(data) >= 3; data = data[3:] {
		fs = append(fs, fact.Fact{S: id(data[0]), R: id(data[1]), T: id(data[2])})
	}
	return fs
}

// FuzzBuildPostings checks that the linear posting builder reproduces
// the reference comparison-sort builder exactly — on the dense
// counting-sort path and the sparse-ID fallback alike.
func FuzzBuildPostings(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 3, 2, 1})                   // duplicates
	f.Add([]byte{1, 200, 7, 9, 3, 7, 250, 200, 7, 9, 255, 0, 1})           // sparse large IDs
	f.Add([]byte{0, 5, 5, 5, 5, 5, 6, 5, 5, 7, 5, 5, 8})                   // single-key world
	f.Add([]byte{0, 9, 1, 4, 8, 1, 4, 7, 2, 4, 6, 2, 4, 5, 3, 4, 4, 3, 4}) // reverse order
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fuzzFacts(data)
		want := referencePostings(slices.Clone(fs))
		got := buildPostings(fs)
		if diff := samePostings(got, want); diff != "" {
			t.Fatalf("linear build differs from the reference in %s", diff)
		}
	})
}

// TestBuildPostingsMatchesReference runs the byte-identity check on
// random worlds large enough for the counting-sort path, and on the
// same worlds re-keyed sparse to force the comparison fallback.
func TestBuildPostingsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(3000)
		dom := 1 + rng.Intn(200)
		fs := make([]fact.Fact, n)
		for i := range fs {
			fs[i] = fact.Fact{S: sym.ID(rng.Intn(dom) + 1), R: sym.ID(rng.Intn(8) + 1), T: sym.ID(rng.Intn(dom) + 1)}
		}
		for _, stretch := range []sym.ID{1, 1 << 20} {
			in := slices.Clone(fs)
			for i := range in {
				in[i] = fact.Fact{S: in[i].S * stretch, R: in[i].R * stretch, T: in[i].T * stretch}
			}
			want := referencePostings(slices.Clone(in))
			if diff := samePostings(buildPostings(in), want); diff != "" {
				t.Fatalf("trial %d stretch %d: differs in %s", trial, stretch, diff)
			}
		}
	}
}
