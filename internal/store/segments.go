// Segment stacks: a sealed store as a stack of disjoint posting
// segments.
//
// A sealed store is usually one posting segment (postings.go). Stores
// that grow by whole batches — the rules engine's closure build adds
// one batch of facts per derivation round — hold a stack instead:
// Extend seals the batch as a new segment on top and shares every
// segment below it, so no round copies or re-indexes the facts it did
// not add. To keep the stack short, Extend merges the top two segments
// while the lower holds fewer than tierRatio times the upper's facts;
// segment sizes then shrink geometrically up the stack, so a store of
// n facts has O(log n) segments and each fact is re-merged O(log n)
// times. Compact merges the whole stack into the single segment that
// SealedFromFacts would have built from the same facts.
//
// Reads visit every segment, oldest first. The segments are disjoint,
// so counts and estimates add up and no match is reported twice.
package store

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/sym"
)

// tierRatio is the size ratio between adjacent segments that Extend
// maintains by merging.
const tierRatio = 4

// segments is a sealed store's read path: disjoint posting segments,
// oldest (and largest) first.
type segments []*postings

// sealedStore wraps a segment stack as a sealed store whose version
// is its fact count, as if each fact had been inserted once.
func sealedStore(u *fact.Universe, segs segments) *Store {
	s := &Store{u: u, sealed: true, segs: segs}
	n := uint64(segs.len())
	s.version.Store(n)
	s.recentBase = n
	return s
}

// Extend returns a sealed store holding s's facts plus fs, leaving s
// unchanged. fs is sealed as one new segment on top of s's stack,
// sharing the segments below; it must not contain facts already in s
// (duplicates within fs collapse). Extend takes ownership of fs and
// panics on a mutable store.
func (s *Store) Extend(fs []fact.Fact) *Store {
	s.mustSealed("Extend")
	if len(fs) == 0 {
		return s
	}
	segs := append(make(segments, 0, len(s.segs)+1), s.segs...)
	segs = append(segs, buildPostings(fs))
	for n := len(segs); n >= 2 && len(segs[n-2].facts) < tierRatio*len(segs[n-1].facts); n = len(segs) {
		segs[n-2] = indexSorted(mergeSorted(segs[n-2].facts, segs[n-1].facts))
		segs = slices.Delete(segs, n-1, n) // clears the slot: no stale segment stays reachable
	}
	return sealedStore(s.u, segs)
}

// Compact returns a single-segment sealed store with s's facts — the
// index SealedFromFacts builds over them — or s itself when its stack
// is one segment already. It panics on a mutable store.
func (s *Store) Compact() *Store {
	s.mustSealed("Compact")
	if len(s.segs) == 1 {
		return s
	}
	return sealedStore(s.u, segments{indexSorted(s.segs.facts())})
}

// Segments returns the number of posting segments of a sealed store
// (0 for a mutable one).
func (s *Store) Segments() int { return len(s.segs) }

// FactID returns f's fact ID in a single-segment sealed store — its
// position in the store's (S, R, T) order, the ID its posting runs
// use — and whether the store holds f. Columns kept alongside a
// compacted store are indexed by it. It panics on a store of any other
// shape.
func (s *Store) FactID(f fact.Fact) (int, bool) {
	return s.segment("FactID").id(f)
}

// FactAt returns the fact with the given fact ID of a single-segment
// sealed store (see FactID).
func (s *Store) FactAt(id int) fact.Fact {
	return s.segment("FactAt").facts[id]
}

func (s *Store) segment(op string) *postings {
	if len(s.segs) != 1 {
		panic("store: " + op + " of a store that is not one sealed segment")
	}
	return s.segs[0]
}

func (s *Store) mustSealed(op string) {
	if !s.sealed {
		panic("store: " + op + " of mutable store")
	}
}

// mergeSorted merges two ascending fact arrays into a new one,
// collapsing facts present in both.
func mergeSorted(a, b []fact.Fact) []fact.Fact {
	out := make([]fact.Fact, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := fact.Compare(a[0], b[0]); {
		case c < 0:
			out = append(out, a[0])
			a = a[1:]
		case c > 0:
			out = append(out, b[0])
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

func (ss segments) len() int {
	n := 0
	for _, p := range ss {
		n += len(p.facts)
	}
	return n
}

func (ss segments) has(f fact.Fact) bool {
	for _, p := range ss {
		if p.has(f) {
			return true
		}
	}
	return false
}

func (ss segments) match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	for _, p := range ss {
		if !p.match(src, rel, tgt, fn) {
			return false
		}
	}
	return true
}

func (ss segments) estimate(src, rel, tgt sym.ID) int {
	n := 0
	for _, p := range ss {
		n += p.estimate(src, rel, tgt)
	}
	return n
}

// matchAll keeps the single-segment zero-copy views; a stack
// materializes an exact-size slice, so a caller append reallocates.
func (ss segments) matchAll(src, rel, tgt sym.ID) []fact.Fact {
	if len(ss) == 1 {
		return ss[0].matchAll(src, rel, tgt)
	}
	n := ss.estimate(src, rel, tgt)
	if n == 0 {
		return nil
	}
	out := make([]fact.Fact, 0, n)
	ss.match(src, rel, tgt, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// facts returns a fresh array of every fact in (S, R, T) order,
// merging the stack from the top down.
func (ss segments) facts() []fact.Fact {
	if len(ss) == 1 {
		return slices.Clone(ss[0].facts)
	}
	acc := ss[len(ss)-1].facts
	for i := len(ss) - 2; i >= 0; i-- {
		acc = mergeSorted(ss[i].facts, acc)
	}
	return acc
}

func (ss segments) entities() []sym.ID {
	seen := make(map[sym.ID]struct{}, len(ss[0].byS)+len(ss[0].byT))
	for _, p := range ss {
		for _, f := range p.facts {
			seen[f.S] = struct{}{}
			seen[f.R] = struct{}{}
			seen[f.T] = struct{}{}
		}
	}
	return sortedIDs(seen)
}

func (ss segments) hasEntity(id sym.ID) bool {
	for _, p := range ss {
		if p.hasEntity(id) {
			return true
		}
	}
	return false
}

func (ss segments) degree(id sym.ID) int {
	n := 0
	for _, p := range ss {
		n += p.degree(id)
	}
	return n
}

func (ss segments) relationships() []RelStat {
	if len(ss) == 1 {
		return ss[0].relationships()
	}
	counts := make(map[sym.ID]int)
	for _, p := range ss {
		for r, pl := range p.byR {
			counts[r] += int(pl.n)
		}
	}
	out := make([]RelStat, 0, len(counts))
	for r, n := range counts {
		out = append(out, RelStat{Rel: r, Count: n})
	}
	return sortRelStats(out)
}
