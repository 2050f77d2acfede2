package ops

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/compose"
	"repro/internal/fact"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/virtual"
)

func setup(facts ...[3]string) (*fact.Universe, *rules.Engine) {
	u := fact.NewUniverse()
	s := store.New(u)
	for _, f := range facts {
		s.Insert(u.NewFact(f[0], f[1], f[2]))
	}
	return u, rules.New(s, virtual.New(u))
}

func TestTryFindsAllPositions(t *testing.T) {
	u, e := setup(
		[3]string{"JOHN", "LIKES", "MARY"},
		[3]string{"MARY", "LIKES", "JOHN"},
		[3]string{"PETER", "JOHN", "X"}) // JOHN as a relationship, why not
	facts := Try(e, u.Entity("JOHN"))
	if len(facts) < 3 {
		t.Fatalf("Try(JOHN) = %d facts", len(facts))
	}
	positions := map[string]bool{}
	for _, f := range facts {
		if f.S == u.Entity("JOHN") {
			positions["source"] = true
		}
		if f.R == u.Entity("JOHN") {
			positions["rel"] = true
		}
		if f.T == u.Entity("JOHN") {
			positions["target"] = true
		}
	}
	for _, p := range []string{"source", "rel", "target"} {
		if !positions[p] {
			t.Errorf("Try missed occurrences in %s position", p)
		}
	}
}

// TestTryOrderIndependentOfInterning pins Try's total order on facts
// whose concatenated names collide ("A"+"B1"+"D", "AB1"+"X"+"D" and
// "AB"+"1X"+"D" all read "AB1…D"): asserted forward and backward, the
// same facts must come back in the same (S, R, T) name order.
func TestTryOrderIndependentOfInterning(t *testing.T) {
	var facts [][3]string
	for i := 0; i < 40; i++ {
		facts = append(facts,
			[3]string{"A", fmt.Sprintf("B%d", i), "D"},
			[3]string{fmt.Sprintf("AB%d", i), "X", "D"},
			[3]string{"AB", fmt.Sprintf("%dX", i), "D"})
	}
	render := func(facts [][3]string) [][3]string {
		u, e := setup(facts...)
		var out [][3]string
		for _, f := range Try(e, u.Entity("D")) {
			out = append(out, [3]string{u.Name(f.S), u.Name(f.R), u.Name(f.T)})
		}
		return out
	}
	forward := render(facts)
	reversed := slices.Clone(facts)
	slices.Reverse(reversed)
	backward := render(reversed)
	if len(forward) != len(facts) {
		t.Fatalf("Try(D) = %d facts, want %d", len(forward), len(facts))
	}
	if !slices.Equal(forward, backward) {
		t.Errorf("Try(D) order depends on insertion order:\nforward  %v\nbackward %v", forward, backward)
	}
	if !slices.IsSortedFunc(forward, func(a, b [3]string) int { return slices.Compare(a[:], b[:]) }) {
		t.Errorf("Try(D) is not in (S, R, T) name order: %v", forward)
	}
}

func TestTryDeduplicates(t *testing.T) {
	u, e := setup([3]string{"JOHN", "LIKES", "JOHN"})
	facts := Try(e, u.Entity("JOHN"))
	if len(facts) != 1 {
		t.Errorf("Try = %d facts, want 1", len(facts))
	}
}

func TestTrySuppressesVirtualNoise(t *testing.T) {
	u, e := setup([3]string{"JOHN", "LIKES", "MARY"})
	for _, f := range Try(e, u.Entity("JOHN")) {
		switch f.R {
		case u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge:
			t.Errorf("virtual fact leaked: %s", u.FormatFact(f))
		case u.Gen:
			if f.S == f.T || f.T == u.Top {
				t.Errorf("gen axiom leaked: %s", u.FormatFact(f))
			}
		}
	}
}

func TestTryUnknownEntity(t *testing.T) {
	u, e := setup([3]string{"A", "R", "B"})
	if facts := Try(e, u.Entity("NOBODY")); len(facts) != 0 {
		t.Errorf("Try(NOBODY) = %d facts", len(facts))
	}
}

func TestIncludeExcludeByName(t *testing.T) {
	_, e := setup()
	if err := Exclude(e, "member-source"); err != nil {
		t.Fatal(err)
	}
	if e.Included(rules.MemberSource) {
		t.Error("exclude did not take")
	}
	if err := Include(e, "member-source"); err != nil {
		t.Fatal(err)
	}
	if !e.Included(rules.MemberSource) {
		t.Error("include did not take")
	}
	if err := Include(e, "no-such-rule"); err == nil {
		t.Error("unknown rule name accepted")
	}
	if err := Exclude(e, "no-such-rule"); err == nil {
		t.Error("unknown rule name accepted")
	}
}

func TestLimitOperator(t *testing.T) {
	_, e := setup()
	c := compose.New(e, 3)
	Limit(c, 1)
	if c.Limit() != 1 || c.Enabled() {
		t.Error("limit(1) did not disable composition")
	}
	Limit(c, 5)
	if c.Limit() != 5 {
		t.Error("limit(5) not applied")
	}
}

func TestRelationPaperTable(t *testing.T) {
	// §6.1: relation(EMPLOYEE, WORKS-FOR DEPARTMENT, EARNS SALARY).
	u, e := setup(
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"TOM", "in", "EMPLOYEE"},
		[3]string{"MARY", "in", "EMPLOYEE"},
		[3]string{"SHIPPING", "in", "DEPARTMENT"},
		[3]string{"ACCOUNTING", "in", "DEPARTMENT"},
		[3]string{"RECEIVING", "in", "DEPARTMENT"},
		[3]string{"$26000", "in", "SALARY"},
		[3]string{"$27000", "in", "SALARY"},
		[3]string{"$25000", "in", "SALARY"},
		[3]string{"JOHN", "WORKS-FOR", "SHIPPING"},
		[3]string{"JOHN", "EARNS", "$26000"},
		[3]string{"TOM", "WORKS-FOR", "ACCOUNTING"},
		[3]string{"TOM", "EARNS", "$27000"},
		[3]string{"MARY", "WORKS-FOR", "RECEIVING"},
		[3]string{"MARY", "EARNS", "$25000"})
	table := Relation(e, u.Entity("EMPLOYEE"),
		RelationAttr{Rel: u.Entity("WORKS-FOR"), Class: u.Entity("DEPARTMENT")},
		RelationAttr{Rel: u.Entity("EARNS"), Class: u.Entity("SALARY")})
	out := table.Render()
	for _, want := range []string{
		"EMPLOYEE", "WORKS-FOR DEPARTMENT", "EARNS SALARY",
		"JOHN", "SHIPPING", "$26000",
		"TOM", "ACCOUNTING", "$27000",
		"MARY", "RECEIVING", "$25000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("relation table missing %q:\n%s", want, out)
		}
	}
	if len(table.Body) != 3 {
		t.Errorf("rows = %d, want 3", len(table.Body))
	}
}

func TestRelationNonFirstNormalForm(t *testing.T) {
	// §6.1: attribute cells may hold any number of entities.
	u, e := setup(
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"D1", "in", "DEPARTMENT"},
		[3]string{"D2", "in", "DEPARTMENT"},
		[3]string{"JOHN", "WORKS-FOR", "D1"},
		[3]string{"JOHN", "WORKS-FOR", "D2"})
	table := Relation(e, u.Entity("EMPLOYEE"),
		RelationAttr{Rel: u.Entity("WORKS-FOR"), Class: u.Entity("DEPARTMENT")})
	if len(table.Body) != 1 {
		t.Fatalf("rows = %d", len(table.Body))
	}
	if len(table.Body[0][1]) != 2 {
		t.Errorf("multi-valued cell = %v", table.Body[0][1])
	}
}

func TestRelationEmptyCells(t *testing.T) {
	u, e := setup(
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"D1", "in", "DEPARTMENT"})
	table := Relation(e, u.Entity("EMPLOYEE"),
		RelationAttr{Rel: u.Entity("WORKS-FOR"), Class: u.Entity("DEPARTMENT")})
	if len(table.Body) != 1 {
		t.Fatalf("rows = %d", len(table.Body))
	}
	if len(table.Body[0][1]) != 0 {
		t.Errorf("expected empty cell, got %v", table.Body[0][1])
	}
}

func TestRelationFiltersByTargetClass(t *testing.T) {
	u, e := setup(
		[3]string{"JOHN", "in", "EMPLOYEE"},
		[3]string{"D1", "in", "DEPARTMENT"},
		[3]string{"JOHN", "WORKS-FOR", "D1"},
		[3]string{"JOHN", "WORKS-FOR", "WEEKENDS"}) // not a department
	table := Relation(e, u.Entity("EMPLOYEE"),
		RelationAttr{Rel: u.Entity("WORKS-FOR"), Class: u.Entity("DEPARTMENT")})
	cell := table.Body[0][1]
	if len(cell) != 1 || cell[0] != "D1" {
		t.Errorf("cell = %v, want [D1]", cell)
	}
}

func TestRelationUsesInference(t *testing.T) {
	// Instances by inheritance appear in the view.
	u, e := setup(
		[3]string{"MANAGER", "isa", "EMPLOYEE"},
		[3]string{"BOB", "in", "MANAGER"},
		[3]string{"D1", "in", "DEPARTMENT"},
		[3]string{"BOB", "WORKS-FOR", "D1"})
	table := Relation(e, u.Entity("EMPLOYEE"),
		RelationAttr{Rel: u.Entity("WORKS-FOR"), Class: u.Entity("DEPARTMENT")})
	found := false
	for _, row := range table.Body {
		if row[0][0] == "BOB" {
			found = true
		}
	}
	if !found {
		t.Error("inherited instance BOB missing from relation view")
	}
}
