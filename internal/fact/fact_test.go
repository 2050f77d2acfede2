package fact

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sym"
)

func TestNewFact(t *testing.T) {
	u := NewUniverse()
	f := u.NewFact("JOHN", "EARNS", "$25000")
	if u.Name(f.S) != "JOHN" || u.Name(f.R) != "EARNS" || u.Name(f.T) != "$25000" {
		t.Errorf("round trip failed: %s", u.FormatFact(f))
	}
}

func TestAliases(t *testing.T) {
	u := NewUniverse()
	cases := map[string]sym.ID{
		"in":      u.Member,
		"isa":     u.Gen,
		"syn":     u.Syn,
		"inv":     u.Inv,
		"contra":  u.Contra,
		"TOP":     u.Top,
		"BOT":     u.Bottom,
		"!=":      u.Neq,
		"<=":      u.Le,
		">=":      u.Ge,
		"member":  u.Member,
		"gen":     u.Gen,
		"inverse": u.Inv,
	}
	for alias, want := range cases {
		if got := u.Entity(alias); got != want {
			t.Errorf("Entity(%q) = %d, want %d", alias, got, want)
		}
	}
}

func TestCanonicalNamesStable(t *testing.T) {
	u := NewUniverse()
	if u.Entity(NameGen) != u.Gen || u.Entity(NameMember) != u.Member {
		t.Error("canonical names must intern to the special IDs")
	}
}

func TestSpecial(t *testing.T) {
	u := NewUniverse()
	for _, id := range []sym.ID{u.Gen, u.Member, u.Syn, u.Inv, u.Contra, u.Top,
		u.Bottom, u.Eq, u.Neq, u.Lt, u.Gt, u.Le, u.Ge, u.IndividualClass, u.RelClassOfClass} {
		if !u.Special(id) {
			t.Errorf("Special(%s) = false", u.Name(id))
		}
	}
	if u.Special(u.Entity("JOHN")) {
		t.Error("JOHN reported special")
	}
}

func TestNumber(t *testing.T) {
	u := NewUniverse()
	cases := []struct {
		name string
		val  float64
		ok   bool
	}{
		{"42", 42, true},
		{"-3.5", -3.5, true},
		{"$25000", 25000, true},
		{"$1,250", 1250, true},
		{"25000", 25000, true},
		{"JOHN", 0, false},
		{"PC#9-WAM", 0, false},
		{"1e3", 1000, true},
	}
	for _, c := range cases {
		id := u.Entity(c.name)
		v, ok := u.Number(id)
		if ok != c.ok || (ok && v != c.val) {
			t.Errorf("Number(%q) = (%v, %v), want (%v, %v)", c.name, v, ok, c.val, c.ok)
		}
		// Cached second call must agree.
		v2, ok2 := u.Number(id)
		if v2 != v || ok2 != ok {
			t.Errorf("Number(%q) cache mismatch", c.name)
		}
	}
}

func TestTermAndTemplate(t *testing.T) {
	u := NewUniverse()
	john := u.Entity("JOHN")
	tp := T3(E(john), V(1), V(2))
	if tp.Ground() {
		t.Error("template with variables reported ground")
	}
	if !tp.S.IsVar() == false && tp.S.Entity != john {
		t.Error("source term corrupted")
	}
	g := T3(E(john), E(u.Member), E(u.Entity("EMPLOYEE")))
	if !g.Ground() {
		t.Error("ground template reported non-ground")
	}
	f := g.AsFact()
	if f.S != john {
		t.Error("AsFact lost the source")
	}
}

func TestAsFactPanicsOnVariables(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AsFact on non-ground template did not panic")
		}
	}()
	T3(V(1), V(2), V(3)).AsFact()
}

func TestVars(t *testing.T) {
	tp := T3(V(1), V(2), V(1))
	vs := tp.Vars(nil)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("Vars = %v, want [1 2]", vs)
	}
	u := NewUniverse()
	ground := T3(E(u.Entity("A")), E(u.Entity("B")), E(u.Entity("C")))
	if vs := ground.Vars(nil); len(vs) != 0 {
		t.Errorf("ground template has vars %v", vs)
	}
}

func TestFormat(t *testing.T) {
	u := NewUniverse()
	f := u.NewFact("JOHN", "EARNS", "$25000")
	if got := u.FormatFact(f); got != "(JOHN, EARNS, $25000)" {
		t.Errorf("FormatFact = %q", got)
	}
	tp := T3(E(u.Entity("JOHN")), V(3), V(7))
	if got := u.FormatTemplate(tp); got != "(JOHN, ?v3, ?v7)" {
		t.Errorf("FormatTemplate = %q", got)
	}
}

func TestQuickNumberConsistency(t *testing.T) {
	u := NewUniverse()
	f := func(n int32) bool {
		name := ""
		if n >= 0 {
			name = "$"
		}
		name += itoa(int64(n))
		id := u.Entity(name)
		v, ok := u.Number(id)
		return ok && v == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestSortByNameMatchesStableSort checks SortByName against a stable
// sort comparing the names directly, on keys of one to three
// positions over names that share long prefixes, are prefixes of one
// another, or repeat (equal keys must keep their input order).
func TestSortByNameMatchesStableSort(t *testing.T) {
	u := NewUniverse()
	var ids []sym.ID
	for _, name := range []string{"A", "AB", "ABCDEFGH", "ABCDEFGHI", "ABCDEFGHJ", "ABCDEFG", "B", "N000123", "N000124", "N0001234", "é", "Z9"} {
		ids = append(ids, u.Intern(name))
	}
	type elem struct {
		k   NameKey
		pos int
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		width := 1 + trial%3
		xs := make([]elem, rng.Intn(40))
		for i := range xs {
			for j := 0; j < width; j++ {
				xs[i].k[j] = ids[rng.Intn(len(ids))]
			}
			xs[i].pos = i
		}
		want := slices.Clone(xs)
		slices.SortStableFunc(want, func(a, b elem) int {
			for j := range a.k {
				var na, nb string
				if a.k[j] != sym.None {
					na = u.Name(a.k[j])
				}
				if b.k[j] != sym.None {
					nb = u.Name(b.k[j])
				}
				if c := strings.Compare(na, nb); c != 0 {
					return c
				}
			}
			return 0
		})
		SortByName(u, xs, func(x elem) NameKey { return x.k })
		if !slices.Equal(xs, want) {
			t.Fatalf("trial %d (width %d):\ngot  %v\nwant %v", trial, width, xs, want)
		}
	}
}
