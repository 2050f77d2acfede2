// Compressed posting-list index for sealed stores.
//
// A sealed store never changes again, so instead of the six hash
// indexes of a mutable store (map[K][]fact.Fact, each bucket a
// distinct slice of 12-byte facts) it holds one sorted fact array plus
// per-bucket runs of fact IDs. Facts are sorted by (S, R, T) and
// identified by their position, which buys two compressions for free:
//
//   - The S and SR buckets are *contiguous ranges* of the sorted array,
//     stored as [lo, hi) spans — zero bytes of postings, and MatchAll
//     can hand out the range as a zero-copy subslice.
//   - The R, T, RT and ST buckets are ascending fact-ID runs,
//     delta+varint encoded into one shared byte arena. Typical deltas
//     fit in 1–2 bytes versus the 12-byte facts the hash buckets
//     duplicated per index.
//
// The build is linear in the fact count plus the ID range: sym.IDs are
// dense, so counting sorts order the facts and regroup their IDs per
// index. A sealed store holds each fact once plus a few bytes of
// postings per index entry, and its large allocations (fact array, enc
// arena) are pointer-free — the GC never scans them.
package store

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/fact"
	"repro/internal/sym"
)

// span is a contiguous run facts[lo:hi] of the sealed fact array.
type span struct{ lo, hi uint32 }

// plist locates one compressed posting run inside postings.enc.
type plist struct {
	off uint32 // byte offset of the run's first varint
	n   uint32 // number of fact IDs in the run
}

// postings is the frozen read-side index of a sealed store.
type postings struct {
	facts []fact.Fact // sorted by (S, R, T); fact ID = index

	byS  map[sym.ID]span
	bySR map[pair]span

	byR  map[sym.ID]plist
	byT  map[sym.ID]plist
	byRT map[pair]plist
	byST map[pair]plist

	enc []byte // delta+varint encoded fact-ID runs
}

func dedupFacts(fs []fact.Fact) []fact.Fact {
	if len(fs) < 2 {
		return fs
	}
	w := 1
	for i := 1; i < len(fs); i++ {
		if fs[i] != fs[w-1] {
			fs[w] = fs[i]
			w++
		}
	}
	return fs[:w]
}

// buildPostings takes ownership of fs, sorts and dedups it, and builds
// the compressed index in time linear in len(fs) plus the ID range.
func buildPostings(fs []fact.Fact) *postings {
	return indexSorted(sortFacts(fs))
}

// denseIDs reports whether IDs below k are dense enough among n
// elements for counting sorts to pay for their O(k) histogram. Sparse
// ID ranges (a small segment over a large universe) take comparison
// sorts instead, which produce the same order.
func denseIDs(n, k int) bool { return k <= 4*n+64 }

// countingSort writes src into dst stably reordered by key, one
// histogram pass over [0, len(cnt)-1). cnt is scratch.
func countingSort[T any](dst, src []T, cnt []uint32, key func(T) sym.ID) {
	clear(cnt)
	for _, x := range src {
		cnt[key(x)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, x := range src {
		k := key(x)
		dst[cnt[k]] = x
		cnt[k]++
	}
}

func maxID(fs []fact.Fact) sym.ID {
	var m sym.ID
	for _, f := range fs {
		m = max(m, f.S, f.R, f.T)
	}
	return m
}

func strictlySorted(fs []fact.Fact) bool {
	for i := 1; i < len(fs); i++ {
		if fact.Compare(fs[i-1], fs[i]) >= 0 {
			return false
		}
	}
	return true
}

// sortFacts returns fs sorted by fact.Compare without duplicates,
// reusing fs's memory or replacing it. Dense IDs take three stable
// counting passes (T, then R, then S); input already in strict order
// is returned as is.
func sortFacts(fs []fact.Fact) []fact.Fact {
	if strictlySorted(fs) {
		return fs
	}
	k := int(maxID(fs)) + 1
	if !denseIDs(len(fs), k) {
		slices.SortFunc(fs, fact.Compare)
		return dedupFacts(fs)
	}
	tmp := make([]fact.Fact, len(fs))
	cnt := make([]uint32, k+1)
	countingSort(tmp, fs, cnt, func(f fact.Fact) sym.ID { return f.T })
	countingSort(fs, tmp, cnt, func(f fact.Fact) sym.ID { return f.R })
	countingSort(tmp, fs, cnt, func(f fact.Fact) sym.ID { return f.S })
	return dedupFacts(tmp)
}

// indexSorted builds the compressed index over fs, which must be
// strictly ascending in fact.Compare order; the index owns fs. Every
// bucket comes from walking one order of fact IDs grouped by its key:
// the sorted array itself for the S and SR spans, and stable
// regroupings of the IDs for the R, T, RT and ST runs, so every run is
// ascending by construction. Runs are encoded in key order (all R
// runs, then T, RT, ST), which fixes the arena layout.
func indexSorted(fs []fact.Fact) *postings {
	p := &postings{facts: fs}
	p.byS, p.bySR = spans(fs)

	// Key extractors by fact ID, for the regrouping sorts.
	byS := func(id uint32) sym.ID { return fs[id].S }
	byR := func(id uint32) sym.ID { return fs[id].R }
	byT := func(id uint32) sym.ID { return fs[id].T }
	rOf := func(f fact.Fact) sym.ID { return f.R }
	tOf := func(f fact.Fact) sym.ID { return f.T }
	rtOf := func(f fact.Fact) pair { return pair{f.R, f.T} }
	stOf := func(f fact.Fact) pair { return pair{f.S, f.T} }

	ids, order := make([]uint32, len(fs)), make([]uint32, len(fs))
	for i := range ids {
		ids[i] = uint32(i)
	}
	if k := int(maxID(fs)) + 1; denseIDs(len(fs), k) {
		cnt := make([]uint32, k+1)
		countingSort(order, ids, cnt, byR) // (R, id)
		p.byR = encodeGroups(p, order, rOf)
		countingSort(order, ids, cnt, byT) // (T, id)
		p.byT = encodeGroups(p, order, tOf)
		countingSort(ids, order, cnt, byR) // (R, T, id)
		p.byRT = encodeGroups(p, ids, rtOf)
		countingSort(ids, order, cnt, byS) // (S, T, id)
		p.byST = encodeGroups(p, ids, stOf)
	} else {
		sortIDs := func(keys ...func(uint32) sym.ID) []uint32 {
			copy(order, ids)
			slices.SortFunc(order, func(a, b uint32) int {
				for _, key := range keys {
					if c := cmp.Compare(key(a), key(b)); c != 0 {
						return c
					}
				}
				return cmp.Compare(a, b)
			})
			return order
		}
		p.byR = encodeGroups(p, sortIDs(byR), rOf)
		p.byT = encodeGroups(p, sortIDs(byT), tOf)
		p.byRT = encodeGroups(p, sortIDs(byR, byT), rtOf)
		p.byST = encodeGroups(p, sortIDs(byS, byT), stOf)
	}
	if cap(p.enc)-len(p.enc) > len(p.enc)/8 {
		p.enc = slices.Clone(p.enc) // drop append slack from a long-lived arena
	}
	return p
}

// spans returns the S and SR buckets of a sorted fact array: sorted
// by (S, R, T), every S run and every (S, R) run is one range.
func spans(fs []fact.Fact) (map[sym.ID]span, map[pair]span) {
	nS, nSR := 0, 0
	for i := range fs {
		if i == 0 || fs[i].S != fs[i-1].S {
			nS++
			nSR++
		} else if fs[i].R != fs[i-1].R {
			nSR++
		}
	}
	byS, bySR := make(map[sym.ID]span, nS), make(map[pair]span, nSR)
	for i := 0; i < len(fs); {
		s := fs[i].S
		j := i
		for j < len(fs) && fs[j].S == s {
			r := fs[j].R
			k := j
			for k < len(fs) && fs[k].S == s && fs[k].R == r {
				k++
			}
			bySR[pair{s, r}] = span{uint32(j), uint32(k)}
			j = k
		}
		byS[s] = span{uint32(i), uint32(j)}
		i = j
	}
	return byS, bySR
}

// encodeGroups varint-encodes one run per key into p.enc and returns
// the runs by key. order lists fact IDs grouped by key, keys ascending
// and IDs ascending within each group.
func encodeGroups[K comparable](p *postings, order []uint32, keyOf func(fact.Fact) K) map[K]plist {
	groups := 0
	for i := range order {
		if i == 0 || keyOf(p.facts[order[i]]) != keyOf(p.facts[order[i-1]]) {
			groups++
		}
	}
	out := make(map[K]plist, groups)
	for i := 0; i < len(order); {
		k := keyOf(p.facts[order[i]])
		j := i + 1
		for j < len(order) && keyOf(p.facts[order[j]]) == k {
			j++
		}
		out[k] = p.appendRun(order[i:j])
		i = j
	}
	return out
}

// AppendUvarintRun delta+varint encodes one ascending uint32 run onto
// dst and returns the extended slice. The first element is encoded
// absolute, every later element as its delta from the predecessor —
// the shared posting-run wire format of the sealed store index and the
// keyword search index (internal/search).
func AppendUvarintRun(dst []byte, run []uint32) []byte {
	prev := uint32(0)
	for i, id := range run {
		d := id - prev
		if i == 0 {
			d = id
		}
		dst = binary.AppendUvarint(dst, uint64(d))
		prev = id
	}
	return dst
}

// EachUvarintRun streams the n decoded IDs of a run encoded at the
// start of enc to fn, stopping early if fn returns false; it reports
// whether it ran to completion. The decode is allocation-free: one
// cursor, one accumulator.
func EachUvarintRun(enc []byte, n uint32, fn func(uint32) bool) bool {
	off := 0
	cur := uint32(0)
	for i := uint32(0); i < n; i++ {
		d, w := binary.Uvarint(enc[off:])
		off += w
		cur += uint32(d)
		if !fn(cur) {
			return false
		}
	}
	return true
}

// DecodeUvarintRun appends the n IDs encoded at the start of enc to
// dst and returns it. The result is strictly ascending when the run
// was encoded from an ascending slice.
func DecodeUvarintRun(enc []byte, n uint32, dst []uint32) []uint32 {
	EachUvarintRun(enc, n, func(id uint32) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// appendRun delta+varint encodes one ascending ID run into p.enc.
func (p *postings) appendRun(run []uint32) plist {
	off := uint32(len(p.enc))
	p.enc = AppendUvarintRun(p.enc, run)
	return plist{off: off, n: uint32(len(run))}
}

// eachID streams the decoded fact IDs of a run to fn, stopping early
// if fn returns false; it reports whether it ran to completion.
func (p *postings) eachID(pl plist, fn func(uint32) bool) bool {
	return EachUvarintRun(p.enc[pl.off:], pl.n, fn)
}

// decodeRun appends the run's fact IDs to dst and returns it. The
// result is strictly ascending.
func (p *postings) decodeRun(pl plist, dst []uint32) []uint32 {
	return DecodeUvarintRun(p.enc[pl.off:], pl.n, dst)
}

// id answers a fully bound probe: locate the (S, R) span, then binary
// search its T column (ascending within the span by the sort order).
// It returns f's fact ID and whether the segment holds f.
func (p *postings) id(f fact.Fact) (int, bool) {
	sp, ok := p.bySR[pair{f.S, f.R}]
	if !ok {
		return 0, false
	}
	run := p.facts[sp.lo:sp.hi]
	i := sort.Search(len(run), func(i int) bool { return run[i].T >= f.T })
	return int(sp.lo) + i, i < len(run) && run[i].T == f.T
}

func (p *postings) has(f fact.Fact) bool {
	_, ok := p.id(f)
	return ok
}

// match is the sealed Store.Match body: spans iterate the fact array
// directly, posting runs stream-decode IDs with no allocation.
func (p *postings) match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		f := fact.Fact{S: src, R: rel, T: tgt}
		if p.has(f) {
			return fn(f)
		}
		return true
	case src != sym.None && rel != sym.None:
		return p.eachSpan(p.bySR[pair{src, rel}], fn)
	case rel != sym.None && tgt != sym.None:
		return p.eachFact(p.byRT[pair{rel, tgt}], fn)
	case src != sym.None && tgt != sym.None:
		return p.eachFact(p.byST[pair{src, tgt}], fn)
	case src != sym.None:
		return p.eachSpan(p.byS[src], fn)
	case rel != sym.None:
		return p.eachFact(p.byR[rel], fn)
	case tgt != sym.None:
		return p.eachFact(p.byT[tgt], fn)
	default:
		for i := range p.facts {
			if !fn(p.facts[i]) {
				return false
			}
		}
		return true
	}
}

func (p *postings) eachSpan(sp span, fn func(fact.Fact) bool) bool {
	for _, f := range p.facts[sp.lo:sp.hi] {
		if !fn(f) {
			return false
		}
	}
	return true
}

func (p *postings) eachFact(pl plist, fn func(fact.Fact) bool) bool {
	return p.eachID(pl, func(id uint32) bool { return fn(p.facts[id]) })
}

// estimate is the sealed estimateLocked body: every answer is O(1).
func (p *postings) estimate(src, rel, tgt sym.ID) int {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		if p.has(fact.Fact{S: src, R: rel, T: tgt}) {
			return 1
		}
		return 0
	case src != sym.None && rel != sym.None:
		sp := p.bySR[pair{src, rel}]
		return int(sp.hi - sp.lo)
	case rel != sym.None && tgt != sym.None:
		return int(p.byRT[pair{rel, tgt}].n)
	case src != sym.None && tgt != sym.None:
		return int(p.byST[pair{src, tgt}].n)
	case src != sym.None:
		sp := p.byS[src]
		return int(sp.hi - sp.lo)
	case rel != sym.None:
		return int(p.byR[rel].n)
	case tgt != sym.None:
		return int(p.byT[tgt].n)
	default:
		return len(p.facts)
	}
}

// matchAll is the sealed MatchAll body. Span-backed patterns (S, SR)
// and the all-wildcard pattern return capacity-clipped subslices of
// the fact array — zero-copy, and a caller append reallocates instead
// of clobbering the index. Posting-backed patterns materialize an
// exact-size slice (len == cap), preserving the same append contract.
func (p *postings) matchAll(src, rel, tgt sym.ID) []fact.Fact {
	switch {
	case src != sym.None && rel != sym.None && tgt != sym.None:
		f := fact.Fact{S: src, R: rel, T: tgt}
		if p.has(f) {
			return []fact.Fact{f}
		}
		return nil
	case src != sym.None && rel != sym.None:
		return p.clipSpan(p.bySR[pair{src, rel}])
	case rel != sym.None && tgt != sym.None:
		return p.materialize(p.byRT[pair{rel, tgt}])
	case src != sym.None && tgt != sym.None:
		return p.materialize(p.byST[pair{src, tgt}])
	case src != sym.None:
		return p.clipSpan(p.byS[src])
	case rel != sym.None:
		return p.materialize(p.byR[rel])
	case tgt != sym.None:
		return p.materialize(p.byT[tgt])
	default:
		return p.facts[:len(p.facts):len(p.facts)]
	}
}

func (p *postings) clipSpan(sp span) []fact.Fact {
	if sp.lo == sp.hi {
		return nil
	}
	return p.facts[sp.lo:sp.hi:sp.hi]
}

func (p *postings) materialize(pl plist) []fact.Fact {
	if pl.n == 0 {
		return nil
	}
	out := make([]fact.Fact, 0, pl.n)
	p.eachID(pl, func(id uint32) bool {
		out = append(out, p.facts[id])
		return true
	})
	return out
}

func (p *postings) hasEntity(id sym.ID) bool {
	if _, ok := p.byS[id]; ok {
		return true
	}
	if _, ok := p.byR[id]; ok {
		return true
	}
	_, ok := p.byT[id]
	return ok
}

func (p *postings) relationships() []RelStat {
	out := make([]RelStat, 0, len(p.byR))
	for r, pl := range p.byR {
		out = append(out, RelStat{Rel: r, Count: int(pl.n)})
	}
	return sortRelStats(out)
}

func (p *postings) degree(id sym.ID) int {
	sp := p.byS[id]
	return int(sp.hi-sp.lo) + int(p.byT[id].n)
}

// IndexStats describes a sealed store's compressed index. The zero
// value is returned for unsealed stores, whose hash indexes have no
// compressed form.
type IndexStats struct {
	Facts          int // stored facts (also the fact-array length)
	SpanBuckets    int // contiguous-range buckets (S, SR)
	PostingBuckets int // compressed runs (R, T, RT, ST)
	PostingBytes   int // bytes of delta+varint posting arena
}

// Buckets returns the total index bucket count across both forms.
func (st IndexStats) Buckets() int { return st.SpanBuckets + st.PostingBuckets }

// IndexBytes estimates the sealed read path's deterministic footprint:
// the fact array (12 bytes per fact), the posting arena, and the
// key+value payload of every bucket (12 bytes each; map headers and
// hash-table overhead are excluded, being runtime-dependent).
func (st IndexStats) IndexBytes() int {
	return st.Facts*12 + st.PostingBytes + st.Buckets()*12
}

// IndexStats returns the sealed store's compressed-index geometry,
// summed over its segments, or the zero value when the store is still
// mutable. Keys present in several segments count once per segment.
func (s *Store) IndexStats() IndexStats {
	var st IndexStats
	for _, p := range s.segs {
		st.Facts += len(p.facts)
		st.SpanBuckets += len(p.byS) + len(p.bySR)
		st.PostingBuckets += len(p.byR) + len(p.byT) + len(p.byRT) + len(p.byST)
		st.PostingBytes += len(p.enc)
	}
	return st
}

// SealedFromFacts builds a sealed single-segment store directly in
// compressed form, skipping the mutable hash indexes entirely — the
// bulk-load path for memory-scale worlds and the seed of every closure
// build. It takes ownership of fs (which it sorts and dedups). The
// store's version is the distinct fact count, as if each fact had been
// inserted once.
func SealedFromFacts(u *fact.Universe, fs []fact.Fact) *Store {
	return sealedStore(u, segments{buildPostings(fs)})
}
