package rules

import (
	"fmt"
	"sort"

	"repro/internal/fact"
	"repro/internal/store"
	"repro/internal/sym"
)

// Violation reports two contradictory facts of the closure: facts
// (x,r,y) and (x,r',y) where (r,⊥,r') holds (§2.5, §3.5). WhyA and
// WhyB carry provenance ("stored", a rule name, "axiom", or
// "virtual") so integrity-constraint failures point at the rule that
// derived the offending fact.
type Violation struct {
	A, B       fact.Fact
	WhyA, WhyB string
}

// Format renders the violation with entity names.
func (v Violation) Format(u *fact.Universe) string {
	return fmt.Sprintf("%s [%s] contradicts %s [%s]",
		u.FormatFact(v.A), v.WhyA, u.FormatFact(v.B), v.WhyB)
}

// Check returns every contradiction in the database closure. A
// loosely structured database is required to have a contradiction-
// free closure (§2.6); a non-empty result means the fact set together
// with the active rules (including integrity constraints, whose
// derived facts are part of the closure) is not a valid database.
func (e *Engine) Check() []Violation {
	c, prov := e.closureWithProv()
	return e.violations(c, prov, e.base.Has)
}

// violations scans closure c for contradictions; stored reports
// whether a fact counts as explicit for provenance.
func (e *Engine) violations(c *store.Store, prov map[fact.Fact]Provenance, stored func(fact.Fact) bool) []Violation {
	u := e.u
	why := func(f fact.Fact) string {
		if stored(f) {
			return "stored"
		}
		if w, ok := prov[f]; ok {
			return w.Rule
		}
		return "virtual"
	}

	// Contradiction pairs present in the closure. Pairs are symmetric
	// (⊥ is its own inverse); process each unordered pair once.
	type rpair struct{ a, b sym.ID }
	pairs := make(map[rpair]struct{})
	c.Match(sym.None, u.Contra, sym.None, func(f fact.Fact) bool {
		a, b := f.S, f.T
		if a > b {
			a, b = b, a
		}
		pairs[rpair{a, b}] = struct{}{}
		return true
	})

	seen := make(map[[2]fact.Fact]struct{})
	var out []Violation
	report := func(f, g fact.Fact) {
		key := [2]fact.Fact{f, g}
		if f.S > g.S || (f.S == g.S && f.R > g.R) {
			key = [2]fact.Fact{g, f}
		}
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		out = append(out, Violation{A: f, B: g, WhyA: why(f), WhyB: why(g)})
	}

	ordered := make([]rpair, 0, len(pairs))
	for p := range pairs {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].a != ordered[j].a {
			return ordered[i].a < ordered[j].a
		}
		return ordered[i].b < ordered[j].b
	})

	for _, p := range ordered {
		p := p
		c.Match(sym.None, p.a, sym.None, func(f fact.Fact) bool {
			g := fact.Fact{S: f.S, R: p.b, T: f.T}
			if p.a == p.b {
				// (r,⊥,r): the relationship can never hold at all.
				report(f, f)
				return true
			}
			if c.Has(g) || e.vp.Has(g) {
				report(f, g)
			}
			return true
		})
		if p.a != p.b {
			// Facts that exist only virtually under p.a cannot
			// conflict with anything virtual (virtual families are
			// internally consistent), but a materialized fact under
			// p.b may conflict with a virtual p.a fact; that case is
			// caught when iterating p.b below.
			c.Match(sym.None, p.b, sym.None, func(f fact.Fact) bool {
				g := fact.Fact{S: f.S, R: p.a, T: f.T}
				if !c.Has(g) && e.vp.Has(g) {
					report(f, g)
				}
				return true
			})
		}
	}
	return out
}

// Consistent reports whether the closure is contradiction-free.
func (e *Engine) Consistent() bool { return len(e.Check()) == 0 }

// WouldViolate reports the new violations that inserting f into the
// base store would create (violations already present are not
// re-reported). Used by strict update paths: the paper requires every
// database state to have a contradiction-free closure (§2.6).
//
// The hypothetical is evaluated on a private closure — the published
// snapshot extended by f through the incremental insert path — that
// is never published. The store is not touched, so a logged database
// writes no records and concurrent readers never see f.
func (e *Engine) WouldViolate(f fact.Fact) []Violation {
	if e.base.Has(f) {
		return nil
	}
	s := e.current()
	before := make(map[[2]fact.Fact]struct{})
	for _, v := range e.violations(s.closure, s.prov, e.base.Has) {
		before[[2]fact.Fact{v.A, v.B}] = struct{}{}
	}
	c, prov := e.applyIncremental(e.rs.Load(), s, []store.Change{{Fact: f}})
	stored := func(g fact.Fact) bool { return g == f || e.base.Has(g) }
	var out []Violation
	for _, v := range e.violations(c, prov, stored) {
		if _, old := before[[2]fact.Fact{v.A, v.B}]; !old {
			out = append(out, v)
		}
	}
	return out
}
