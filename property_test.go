package lsdb_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	lsdb "repro"
	"repro/internal/dataset"
	"repro/internal/fact"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/rules"
)

// Whole-system property tests over randomly generated databases. The
// worlds come from internal/gen: generalization forests with cycles,
// synonyms, inversions, memberships, data facts, retraction waves and
// random standard-rule toggles.

// genDB builds the default random world for seed: full feature mix,
// including rule toggles and retractions.
func genDB(seed int64) *lsdb.Database {
	return gen.Generate(seed, gen.Small()).Build()
}

// fullRulesCfg generates worlds that keep every standard rule enabled
// and declare no class relationships — the configuration under which
// the paper's broadness and transitivity theorems are stated.
func fullRulesCfg() gen.Config {
	cfg := gen.Small()
	cfg.RuleToggles = false
	cfg.PClassRel = 0
	return cfg
}

// TestQuickBroadnessMonotonicity verifies the paper's central probing
// theorem (§5.1): if Q' is minimally broader than Q, then {Q} ⊆ {Q'}.
// The theorem assumes the full standard rule set over individual
// relationships, so these worlds toggle nothing off.
func TestQuickBroadnessMonotonicity(t *testing.T) {
	f := func(seed int64, relIdx, classIdx uint8) bool {
		db := gen.Generate(seed, fullRulesCfg()).Build()
		u := db.Universe()
		rel := fmt.Sprintf("R%d", relIdx%3)
		class := fmt.Sprintf("C%d", classIdx%5)
		q, err := db.Parse(fmt.Sprintf("(?x, %s, %s)", rel, class))
		if err != nil {
			t.Fatal(err)
		}
		base, err := db.Eval(q)
		if err != nil {
			return false
		}
		baseSet := map[string]bool{}
		for _, tp := range base.Tuples {
			baseSet[tp[0]] = true
		}

		// Build every minimally broader query via the prober's own
		// generalization machinery.
		pr := db.Prober()
		for _, g := range pr.MinimalGens(u.Entity(class)) {
			broader := fmt.Sprintf("(?x, %s, %s)", rel, u.Name(g))
			res, err := db.Query(broader)
			if err != nil {
				return false
			}
			have := map[string]bool{}
			for _, tp := range res.Tuples {
				have[tp[0]] = true
			}
			for x := range baseSet {
				if !have[x] {
					t.Logf("seed %d: %s ⊈ %s: lost %s", seed, q.String(), broader, x)
					return false
				}
			}
		}
		for _, g := range pr.MinimalGens(u.Entity(rel)) {
			broader := fmt.Sprintf("(?x, %s, %s)", u.Name(g), class)
			res, err := db.Query(broader)
			if err != nil {
				return false
			}
			have := map[string]bool{}
			for _, tp := range res.Tuples {
				have[tp[0]] = true
			}
			for x := range baseSet {
				if !have[x] {
					t.Logf("seed %d: rel-broadening lost %s", seed, x)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickClosureMonotoneInFacts: adding a fact never removes
// closure facts (the rules are monotonic; the world's rule
// configuration is frozen once it is built).
func TestQuickClosureMonotoneInFacts(t *testing.T) {
	f := func(seed int64) bool {
		db := genDB(seed)
		before := db.Engine().Closure().Facts()
		db.MustAssert("EXTRA", "R0", "C0")
		after := db.Engine().Closure()
		for _, g := range before {
			if !after.Has(g) {
				u := db.Universe()
				t.Logf("seed %d: lost %s", seed, u.FormatFact(g))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickRetractionRestoresClosure: asserting fresh facts and then
// retracting them in reverse leaves the closure exactly where it
// started — the non-monotonic full-recompute path must not leak
// derived facts or lose established ones.
func TestQuickRetractionRestoresClosure(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		db := genDB(seed)
		before := map[fact.Fact]bool{}
		for _, g := range db.Engine().Closure().Facts() {
			before[g] = true
		}
		k := 1 + int(n%5)
		for i := 0; i < k; i++ {
			db.MustAssert(fmt.Sprintf("WAVE%d", i), "isa", fmt.Sprintf("C%d", i%5))
		}
		for i := k - 1; i >= 0; i-- {
			db.Retract(fmt.Sprintf("WAVE%d", i), "isa", fmt.Sprintf("C%d", i%5))
		}
		after := db.Engine().Closure().Facts()
		if len(after) != len(before) {
			t.Logf("seed %d: closure size %d -> %d", seed, len(before), len(after))
			return false
		}
		for _, g := range after {
			if !before[g] {
				t.Logf("seed %d: leaked %s", seed, db.Universe().FormatFact(g))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickGenClosureIsTransitive: the generalization facts of the
// closure form a transitive relation over stored entities (requires
// gen-transitive enabled, so these worlds toggle nothing off).
func TestQuickGenClosureIsTransitive(t *testing.T) {
	f := func(seed int64) bool {
		db := gen.Generate(seed, fullRulesCfg()).Build()
		u := db.Universe()
		c := db.Engine().Closure()
		gens := c.MatchAll(0, u.Gen, 0)
		idx := map[[2]string]bool{}
		for _, g := range gens {
			idx[[2]string{u.Name(g.S), u.Name(g.T)}] = true
		}
		for a := range idx {
			for b := range idx {
				if a[1] == b[0] && a[0] != b[1] {
					if !idx[[2]string{a[0], b[1]}] {
						t.Logf("seed %d: %v ∘ %v missing", seed, a, b)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickSynonymsAreEquivalence: synonym facts in the closure are
// symmetric and transitive.
func TestQuickSynonymsAreEquivalence(t *testing.T) {
	f := func(seed int64, pairs []uint8) bool {
		db := lsdb.New()
		names := []string{"S0", "S1", "S2", "S3"}
		for i, p := range pairs {
			if i >= 4 {
				break
			}
			db.MustAssert(names[int(p)%len(names)], "syn", names[(int(p)/4)%len(names)])
		}
		u := db.Universe()
		c := db.Engine().Closure()
		syns := c.MatchAll(0, u.Syn, 0)
		idx := map[[2]string]bool{}
		for _, s := range syns {
			idx[[2]string{u.Name(s.S), u.Name(s.T)}] = true
		}
		for p := range idx {
			if !idx[[2]string{p[1], p[0]}] {
				return false // not symmetric
			}
			for q := range idx {
				if p[1] == q[0] && p[0] != q[1] {
					if !idx[[2]string{p[0], q[1]}] {
						return false // not transitive
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickInversionIsInvolutive: for every inversion declaration
// (r, ⇌, r') in the closure, each closure fact over r has its mirror
// over r' (requires the inversion rule, so no toggles here). This
// covers self-inverse (symmetric) relationships too, which the
// generator emits with probability PInv²/|R|.
func TestQuickInversionIsInvolutive(t *testing.T) {
	f := func(seed int64) bool {
		db := gen.Generate(seed, fullRulesCfg()).Build()
		u := db.Universe()
		c := db.Engine().Closure()
		for _, iv := range c.MatchAll(0, u.Inv, 0) {
			for _, g := range c.MatchAll(0, iv.S, 0) {
				mirror := fact.Fact{S: g.T, R: iv.T, T: g.S}
				if !c.Has(mirror) {
					t.Logf("seed %d: (%s,⇌,%s) but %s lacks mirror %s", seed,
						u.Name(iv.S), u.Name(iv.T), u.FormatFact(g), u.FormatFact(mirror))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickProbeTerminates: probing always terminates and classifies
// the outcome, on fully-featured worlds including rule toggles.
func TestQuickProbeTerminates(t *testing.T) {
	f := func(seed int64, relIdx, classIdx uint8) bool {
		db := genDB(seed)
		src := fmt.Sprintf("(?x, R%d, C%d)", relIdx%3, classIdx%5)
		out, err := db.Probe(src)
		if err != nil {
			return false
		}
		if out.Succeeded() {
			return len(out.Waves) == 0
		}
		hasSuccess := false
		for _, w := range out.Waves {
			if len(w.Successes()) > 0 {
				hasSuccess = true
			}
		}
		return hasSuccess || out.Exhausted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickQueryDeterminism: evaluating the same query twice yields
// identical tuple lists.
func TestQuickQueryDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		db := genDB(seed)
		q := "(?x, ?r, ?y)"
		r1, err1 := db.Query(q)
		r2, err2 := db.Query(q)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Tuples) != len(r2.Tuples) {
			return false
		}
		for i := range r1.Tuples {
			for j := range r1.Tuples[i] {
				if r1.Tuples[i][j] != r2.Tuples[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickParserRoundTrip: rendering and reparsing a random
// template query is stable.
func TestQuickParserRoundTrip(t *testing.T) {
	db := lsdb.New()
	u := db.Universe()
	f := func(a, b, c uint8, vs, vr, vt bool) bool {
		term := func(n uint8, isVar bool, vname string) string {
			if isVar {
				return "?" + vname
			}
			return fmt.Sprintf("E%d", n%16)
		}
		src := fmt.Sprintf("(%s, %s, %s)",
			term(a, vs, "x"), term(b, vr, "r"), term(c, vt, "y"))
		q, err := query.Parse(u, src)
		if err != nil {
			return false
		}
		q2, err := query.Parse(u, q.String())
		if err != nil {
			return false
		}
		return q2.String() == q.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// closuresAgree materializes the database closure with two different
// worker counts and reports whether the fact sets and per-fact
// provenance (Explain) are identical. Both databases are built by mk
// with the same seed, so they hold the same stored facts; excluded
// lists the standard rules toggled off in both.
func closuresAgree(t *testing.T, mk func() *lsdb.Database, excluded []rules.StdRule) bool {
	t.Helper()
	db1, db2 := mk(), mk()
	for _, r := range excluded {
		db1.Engine().Exclude(r)
		db2.Engine().Exclude(r)
	}
	db1.Engine().SetWorkers(1)
	db2.Engine().SetWorkers(8)
	c1 := db1.Engine().Closure()
	c2 := db2.Engine().Closure()
	if c1.Len() != c2.Len() {
		t.Logf("closure sizes differ: sequential %d vs parallel %d", c1.Len(), c2.Len())
		return false
	}
	u := db1.Universe()
	for _, f := range c1.Facts() {
		if !c2.Has(f) {
			t.Logf("parallel closure missing %s", u.FormatFact(f))
			return false
		}
		if w1, w2 := db1.Engine().Explain(f), db2.Engine().Explain(f); w1 != w2 {
			t.Logf("provenance differs for %s: sequential %q vs parallel %q",
				u.FormatFact(f), w1, w2)
			return false
		}
	}
	return true
}

// TestQuickParallelClosureEquivalence: the closure and the rule
// recorded for every derived fact are independent of the worker
// count, across generated worlds (whose own programs already toggle
// rules) and additional random standard-rule exclusions.
func TestQuickParallelClosureEquivalence(t *testing.T) {
	all := rules.StdRules()
	f := func(seed int64, toggles uint16) bool {
		var excluded []rules.StdRule
		for i, r := range all {
			if toggles&(1<<uint(i%16)) != 0 && i%3 == int(seed&1) {
				excluded = append(excluded, r)
			}
		}
		return closuresAgree(t, func() *lsdb.Database { return genDB(seed) }, excluded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelClosureEquivalenceAtScale repeats the equivalence check
// on a dataset large enough that closure rounds actually cross the
// parallel threshold and fan out across workers (small generated
// worlds above stay on the sequential path).
func TestParallelClosureEquivalenceAtScale(t *testing.T) {
	mk := func() *lsdb.Database {
		return dataset.University(dataset.UniversityConfig{
			Students: 300, Courses: 30, Instructors: 12, EnrollPerStudent: 3, Seed: 7,
		})
	}
	if !closuresAgree(t, mk, nil) {
		t.Error("parallel closure diverges from sequential at scale")
	}
	if !closuresAgree(t, mk, []rules.StdRule{rules.GenSource, rules.MemberSource}) {
		t.Error("parallel closure diverges from sequential with rules excluded")
	}

	// And on a medium generated world, which also crosses the
	// threshold but carries synonyms, inversions and retractions.
	w := gen.Generate(11, gen.Medium())
	if !closuresAgree(t, w.Build, nil) {
		t.Error("parallel closure diverges from sequential on a generated medium world")
	}
}

// TestProofTreesIndependentOfInsertionOrder pins that a full closure
// build's proof trees depend only on the fact set: the same 1,500-fact
// graph world asserted in three orders (entity IDs interned in one
// fixed order) must give identical Derive trees for every closure
// fact. A primary that replayed its log and a follower loaded from a
// snapshot hold the same facts in different insertion orders, and
// must answer /derive identically at the same LSN.
func TestProofTreesIndependentOfInsertionOrder(t *testing.T) {
	src, _ := dataset.Graph(dataset.GraphConfig{Entities: 300, Facts: 1400, Relationships: 6, Seed: 5})
	for i := 1; i < 6; i += 2 {
		src.MustAssert(fmt.Sprintf("REL-%02d", i), "isa", fmt.Sprintf("REL-%02d", i-1))
	}
	src.MustAssert("REL-00", "inv", "REL-INV-00")
	for j := 1; j < 6; j++ {
		src.MustAssert(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < 300; i += 5 {
		src.MustAssert(fmt.Sprintf("N%06d", i), "in", fmt.Sprintf("K%d", i%6))
	}
	var facts [][3]string
	for _, f := range src.Store().Facts() {
		facts = append(facts, [3]string{src.Name(f.S), src.Name(f.R), src.Name(f.T)})
	}
	sort.Slice(facts, func(i, j int) bool { return fmt.Sprint(facts[i]) < fmt.Sprint(facts[j]) })
	if len(facts) < 1400 {
		t.Fatalf("world has %d facts, want ~1500", len(facts))
	}
	var names []string
	for _, f := range facts {
		names = append(names, f[:]...)
	}
	sort.Strings(names)

	digest := func(order [][3]string) string {
		db := lsdb.New()
		for _, n := range names {
			db.Entity(n)
		}
		for _, f := range order {
			db.MustAssert(f[0], f[1], f[2])
		}
		eng := db.Engine()
		h := sha256.New()
		var walk func(*rules.Derivation)
		walk = func(d *rules.Derivation) {
			fmt.Fprintf(h, "(%s %s", db.Universe().FormatFact(d.Fact), d.Rule)
			for _, p := range d.Premises {
				walk(p)
			}
			h.Write([]byte(")"))
		}
		for _, f := range eng.Closure().Facts() {
			walk(eng.Derive(f))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	reversed := slices.Clone(facts)
	slices.Reverse(reversed)
	shuffled := slices.Clone(facts)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	want := digest(facts)
	for name, order := range map[string][][3]string{"reversed": reversed, "shuffled": shuffled} {
		if got := digest(order); got != want {
			t.Errorf("%s insertion order: proof-tree digest %s, sorted order %s", name, got, want)
		}
	}
}
