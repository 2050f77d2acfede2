// Package ops implements the retrieval operators of §6.1, defined on
// top of the standard query language: try (start-up information for
// navigation), relation (structured non-1NF views over the heap of
// facts), and thin wrappers for include/exclude (rule toggling) and
// limit (composition chains).
package ops

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/compose"
	"repro/internal/fact"
	"repro/internal/rules"
	"repro/internal/sym"
	"repro/internal/tabular"
)

// Try returns every closure fact that includes the entity in any
// position (§6.1: implemented with the standard query
// (e,y,z) ∨ (x,e,z) ∨ (x,y,e)). With a couple of tries, a user
// completely unfamiliar with the database can pick a navigation
// starting point.
//
// The facts are in the order of their (S, R, T) name tuples, compared
// name by name. Names are unique, so the order is total: it depends
// only on the closure, never on the order names were interned, and
// every replica of a database pages the same answer the same way.
func Try(eng *rules.Engine, e sym.ID) []fact.Fact {
	u := eng.Universe()
	var out []fact.Fact
	keep := func(f fact.Fact) bool {
		// Suppress virtual noise exactly as navigation does.
		switch f.R {
		case u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge:
			return true
		case u.Gen:
			if f.S == f.T || f.T == u.Top || f.S == u.Bottom {
				return true
			}
		}
		out = append(out, f)
		return true
	}
	eng.Match(e, sym.None, sym.None, keep)
	eng.Match(sym.None, e, sym.None, keep)
	eng.Match(sym.None, sym.None, e, keep)
	// A fact naming e in several positions matched several templates;
	// sorted, its copies are adjacent.
	fact.SortByName(u, out, func(f fact.Fact) fact.NameKey { return fact.NameKey{f.S, f.R, f.T} })
	return slices.Compact(out)
}

// Include enables a standard inference rule (§6.1 include(rule)).
func Include(eng *rules.Engine, name string) error {
	r, ok := rules.StdRuleByName(name)
	if !ok {
		return fmt.Errorf("ops: unknown standard rule %q", name)
	}
	eng.Include(r)
	return nil
}

// Exclude disables a standard inference rule (§6.1 exclude(rule)).
func Exclude(eng *rules.Engine, name string) error {
	r, ok := rules.StdRuleByName(name)
	if !ok {
		return fmt.Errorf("ops: unknown standard rule %q", name)
	}
	eng.Exclude(r)
	return nil
}

// Limit sets the bound on composition chain length (§6.1 limit(n)).
func Limit(c *compose.Composer, n int) {
	c.SetLimit(n)
}

// RelationAttr is one (relationship, target class) column of a
// relation view.
type RelationAttr struct {
	Rel   sym.ID
	Class sym.ID
}

// Relation implements the §6.1 operator
// relation(s, r₁ t₁, …, rₘ tₘ): it returns a tabulated view whose
// first column holds the instances y of class s, and whose i-th
// attribute column holds every entity z with (y, rᵢ, z) in the
// closure and (z, ∈, tᵢ). The result is not necessarily in first
// normal form — attribute cells may hold any number of entities,
// including none.
func Relation(eng *rules.Engine, class sym.ID, attrs ...RelationAttr) *tabular.Rows {
	u := eng.Universe()
	t := &tabular.Rows{}
	t.Headers = append(t.Headers, u.Name(class))
	for _, a := range attrs {
		t.Headers = append(t.Headers, u.Name(a.Rel)+" "+u.Name(a.Class))
	}

	var instances []sym.ID
	seen := make(map[sym.ID]struct{})
	eng.Match(sym.None, u.Member, class, func(f fact.Fact) bool {
		if _, dup := seen[f.S]; !dup {
			seen[f.S] = struct{}{}
			instances = append(instances, f.S)
		}
		return true
	})
	fact.SortByName(u, instances, fact.IDKey)

	for _, y := range instances {
		row := make([][]string, 0, 1+len(attrs))
		row = append(row, []string{u.Name(y)})
		for _, a := range attrs {
			var vals []string
			vseen := make(map[sym.ID]struct{})
			eng.Match(y, a.Rel, sym.None, func(f fact.Fact) bool {
				z := f.T
				if _, dup := vseen[z]; dup {
					return true
				}
				if !eng.Has(fact.Fact{S: z, R: u.Member, T: a.Class}) {
					return true
				}
				vseen[z] = struct{}{}
				vals = append(vals, u.Name(z))
				return true
			})
			sort.Strings(vals)
			row = append(row, vals)
		}
		t.AddRow(row...)
	}
	return t
}
