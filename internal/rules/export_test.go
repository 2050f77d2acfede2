package rules

import (
	"fmt"
	"maps"
	"reflect"
	"sync"

	"repro/internal/fact"
	"repro/internal/sym"
)

// ProvenanceReference is the map-based provenance the snapshot columns
// replaced, kept as their oracle: on every publish it clones the
// previous snapshot's map, deletes the records delete-and-rederive
// dropped and records the build's derivations, as the engine did
// before the columns, and Check compares Explain and Derive against
// it on every closure fact.
type ProvenanceReference struct {
	e *Engine

	mu  sync.Mutex
	m   map[fact.Fact]refRecord
	err error

	// Publishes by build path.
	Full, Incremental, Deletes int
}

type refRecord struct {
	rule     string
	premises []fact.Fact
}

// TrackProvenance installs the reference on e, which must not have
// published a snapshot yet.
func TrackProvenance(e *Engine) *ProvenanceReference {
	r := &ProvenanceReference{e: e}
	e.published = r.record
	return r
}

func (r *ProvenanceReference) record(_ *snapshot, l *provLog) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case l.old == nil:
		r.Full++
		r.m = make(map[fact.Fact]refRecord)
	case r.m == nil:
		r.err = fmt.Errorf("first tracked publish was not a full build")
		return
	case l.drop != nil:
		r.Deletes++
		r.m = maps.Clone(r.m)
		for id, dropped := range l.drop {
			if dropped {
				delete(r.m, l.old.closure.FactAt(id))
			}
		}
	default:
		r.Incremental++
		r.m = maps.Clone(r.m)
	}
	for _, d := range l.recs {
		r.m[d.f] = refRecord{rule: d.why, premises: d.premises}
	}
}

// Check compares Explain and Derive with the reference on every fact
// of the current closure, and the facts holding a record — which
// Explain cannot tell apart for stored facts — with the map's keys.
func (r *ProvenanceReference) Check() error {
	e := r.e
	prov := e.current().provenance()
	r.mu.Lock()
	ref, err := r.m, r.err
	r.mu.Unlock()
	if err != nil {
		return err
	}
	records := 0
	prov.closure.Match(sym.None, sym.None, sym.None, func(f fact.Fact) bool {
		_, got := prov.lookup(f)
		if _, want := ref[f]; got != want {
			err = fmt.Errorf("record of %s present = %v, reference %v", e.u.FormatFact(f), got, want)
			return false
		}
		if got {
			records++
		}
		if got, want := e.Explain(f), r.explain(ref, f); got != want {
			err = fmt.Errorf("Explain%s = %q, reference %q", e.u.FormatFact(f), got, want)
			return false
		}
		if got, want := e.Derive(f), r.derive(ref, f); !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("Derive%s =\n%s reference\n%s", e.u.FormatFact(f), got.Format(e.u), want.Format(e.u))
			return false
		}
		return true
	})
	if err == nil && records != len(ref) {
		err = fmt.Errorf("%d closure facts have records, reference has %d", records, len(ref))
	}
	return err
}

// explain and derive are Explain and Derive over the reference map,
// for facts of the current closure.
func (r *ProvenanceReference) explain(ref map[fact.Fact]refRecord, f fact.Fact) string {
	if r.e.base.Has(f) {
		return "stored"
	}
	if p, ok := ref[f]; ok {
		return p.rule
	}
	return "derived"
}

func (r *ProvenanceReference) derive(ref map[fact.Fact]refRecord, f fact.Fact) *Derivation {
	seen := make(map[fact.Fact]bool)
	var build func(fact.Fact) *Derivation
	build = func(g fact.Fact) *Derivation {
		if r.e.base.Has(g) {
			return &Derivation{Fact: g, Rule: "stored"}
		}
		p, ok := ref[g]
		if !ok {
			return &Derivation{Fact: g, Rule: "derived"}
		}
		d := &Derivation{Fact: g, Rule: p.rule}
		if seen[g] {
			return d
		}
		seen[g] = true
		for _, prem := range p.premises {
			d.Premises = append(d.Premises, build(prem))
		}
		return d
	}
	return build(f)
}
