package rules

import (
	"slices"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// Provenance columns: how each fact of a published closure was first
// obtained.
//
// A closure build records the first derivation of every fact it adds
// (provLog). Publish compacts the closure to one posting segment and,
// on a goroutine of its own, turns the records into columns aligned
// with that segment's fact IDs (buildProvenance): a rule code per
// closure fact and premise
// references into one flat arena. The columns of the previous snapshot
// carry over in the same linear pass, remapped to the new fact IDs, so
// an incremental or delete-and-rederive publish copies no map and the
// columns cost a few bytes per closure fact instead of a map entry and
// a premise slice each.

// provenance holds the derivation records of one published closure as
// columns aligned with its single posting segment (store.FactID):
// closure fact i was derived by rule names[code[i]-1] from the
// premises prem[off[i]:off[i+1]], in fact.Compare order. Code 0 is no
// record — a stored fact. A premise is the closure fact ID it names,
// or extraRef|j for extra[j], a premise the closure does not hold: a
// virtual fact in a user rule body, or a fact a later
// delete-and-rederive dropped. Immutable once built.
type provenance struct {
	closure *store.Store
	names   []string // rule name by code-1; later snapshots may append
	code    []uint32
	off     []uint32
	prem    []uint32
	extra   []fact.Fact
}

// extraRef marks a premise reference into provenance.extra.
const extraRef = 1 << 31

// provLog is what one closure build recorded: the first derivation of
// every fact it added, in derivation order, over the records of the
// snapshot it maintains. old is nil for a full build; drop marks, by
// the old closure's fact IDs, the records delete-and-rederive
// invalidated (its overdeleted cone).
type provLog struct {
	old  *provenance
	drop []bool
	recs []derivation
}

func (l *provLog) add(d derivation) { l.recs = append(l.recs, d) }

// buildProvenance returns the columns of closure c, a single-segment
// store holding every fact the log's records and kept old records
// name. The two record sets are disjoint: a build records only facts
// the closure it extends lacks, and delete-and-rederive drops the old
// records of every fact it may record again. A first pass places each
// record — the log's by fact-ID lookup, the old snapshot's by merging
// the two sorted closures, which also remaps the old premise IDs —
// and counts its premises; the counts become offsets, and a second
// pass writes the premises, each pass reading its records in order.
func buildProvenance(c *store.Store, l *provLog) *provenance {
	n := c.Len()
	p := &provenance{closure: c, code: make([]uint32, n), off: make([]uint32, n+1)}
	codes := make(map[string]uint32)
	if l.old != nil {
		// Clipped, so an append copies: two builds over one snapshot
		// never share a growing array.
		p.names = slices.Clip(l.old.names)
		for i, name := range p.names {
			codes[name] = uint32(i + 1)
		}
	}
	place := func(j int, code uint32, premises int) {
		if p.code[j] != 0 {
			panic("rules: two provenance records for one closure fact")
		}
		p.code[j] = code
		p.off[j+1] = uint32(premises)
	}

	at := make([]int32, len(l.recs)) // closure fact ID of each record
	for i, d := range l.recs {
		j, ok := c.FactID(d.f)
		if !ok {
			panic("rules: provenance record for a fact outside the closure")
		}
		code, ok := codes[d.why]
		if !ok {
			p.names = append(p.names, d.why)
			code = uint32(len(p.names))
			codes[d.why] = code
		}
		place(j, code, len(d.premises))
		at[i] = int32(j)
	}
	var remap []int32 // old fact ID → new fact ID, -1 when gone
	old := l.old
	kept := func(i int) bool { return remap[i] >= 0 && old.code[i] != 0 && (l.drop == nil || !l.drop[i]) }
	if old != nil {
		remap = make([]int32, len(old.code))
		newFs := c.MatchAll(sym.None, sym.None, sym.None)
		j := 0
		for i, f := range old.closure.MatchAll(sym.None, sym.None, sym.None) {
			for j < len(newFs) && fact.Compare(newFs[j], f) < 0 {
				j++
			}
			remap[i] = -1
			if j < len(newFs) && newFs[j] == f {
				remap[i] = int32(j)
			}
			if kept(i) {
				place(int(remap[i]), old.code[i], len(old.premises(i)))
			}
		}
	}
	for j := range n {
		p.off[j+1] += p.off[j]
	}

	p.prem = make([]uint32, p.off[n])
	var lastF fact.Fact // a build's consecutive records often share a premise
	var lastRef uint32
	ref := func(f fact.Fact) uint32 {
		if f == lastF {
			return lastRef
		}
		if j, ok := c.FactID(f); ok {
			lastF, lastRef = f, uint32(j)
		} else {
			p.extra = append(p.extra, f)
			lastF, lastRef = f, extraRef|uint32(len(p.extra)-1)
		}
		return lastRef
	}
	for i, d := range l.recs {
		out := p.prem[p.off[at[i]]:]
		for k, q := range d.premises {
			out[k] = ref(q)
		}
	}
	if old != nil {
		for i := range old.code {
			if !kept(i) {
				continue
			}
			out := p.prem[p.off[remap[i]]:]
			for k, r := range old.premises(i) {
				if r&extraRef == 0 && remap[r] >= 0 {
					out[k] = uint32(remap[r])
				} else {
					out[k] = ref(old.premise(r))
				}
			}
		}
	}
	return p
}

// lookup returns f's closure fact ID and whether f has a derivation
// record.
func (p *provenance) lookup(f fact.Fact) (int, bool) {
	id, ok := p.closure.FactID(f)
	return id, ok && p.code[id] != 0
}

// rule names the rule that derived closure fact id, which must have a
// record.
func (p *provenance) rule(id int) string { return p.names[p.code[id]-1] }

// premises returns the premise references of closure fact id.
func (p *provenance) premises(id int) []uint32 { return p.prem[p.off[id]:p.off[id+1]] }

// premise resolves one premise reference to its fact.
func (p *provenance) premise(r uint32) fact.Fact {
	if r&extraRef != 0 {
		return p.extra[r&^extraRef]
	}
	return p.closure.FactAt(int(r))
}
