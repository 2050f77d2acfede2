package rules

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fact"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
	"repro/internal/virtual"
)

// Engine evaluates the database closure: the set of facts obtainable
// by repeated application of the active rules to the stored facts
// (§2.6), together with the virtual facts of §2.3/§3.6.
//
// The closure is materialized lazily by semi-naive forward chaining
// and published as an immutable snapshot (sealed closure store +
// provenance map + the base/config versions it reflects) through an
// atomic pointer. A batch of pure insertions is folded in by cloning
// the previous snapshot and extending the copy (the rules are
// monotonic); deletions and rule toggling force a recomputation.
// Cold builds partition each derivation round across worker
// goroutines (see apply.go).
//
// Concurrency: any number of goroutines may query concurrently, and
// queries may run concurrently with base-store mutations — warm reads
// load the published snapshot without taking the engine lock, and a
// stampede of cold readers coalesces into a single build. Mutators
// still serialize among themselves on the base store's own lock.
type Engine struct {
	base *store.Store
	vp   *virtual.Provider
	u    *fact.Universe

	// mu serializes configuration changes and snapshot builds; the
	// read path never acquires it.
	mu         sync.Mutex
	rs         atomic.Pointer[ruleset]
	cfgVersion atomic.Uint64
	workers    int // closure build parallelism; 0 = GOMAXPROCS

	snap atomic.Pointer[snapshot]

	// sg is the cross-query subgoal cache for bounded on-demand
	// matching (ondemand.go); invalidated by version labels, never by
	// walking entries. See subgoal.go.
	sg subgoalCache

	// m holds observability handles (SetMetrics, metrics.go). The zero
	// value is all nil-safe no-ops.
	m engineMetrics

	// Axiom facts (apply.go) depend only on the universe; built once
	// and shared by every closure build and bounded subgoal.
	axiomOnce sync.Once
	axioms    []derivation
	axiomFs   []fact.Fact
}

// ruleset is an immutable snapshot of the rule configuration. Config
// mutators replace the whole value (copy-on-write), so derivation
// code can read it without holding the engine lock. ver is the
// cfgVersion this snapshot corresponds to: readers that need a
// (ruleset, version) pair — the subgoal cache keys entries by it —
// take both from the same load instead of racing two atomics.
type ruleset struct {
	ver       uint64
	std       [numStdRules]bool
	userRules []*Rule
}

// snapshot is one published closure: a sealed store plus the
// provenance of every derived fact, labeled with the base and config
// versions it reflects. All fields except the lazily computed entity
// list are immutable after publication.
type snapshot struct {
	closure *store.Store
	prov    map[fact.Fact]Provenance // how each derived fact was first obtained
	baseVer uint64                   // base.Version() the closure reflects
	cfgVer  uint64                   // cfgVersion the closure reflects

	entitiesOnce sync.Once
	entities     []sym.ID // closure.Entities(), computed on first use
}

// New returns an engine over base with all standard rules enabled.
func New(base *store.Store, vp *virtual.Provider) *Engine {
	e := &Engine{base: base, vp: vp, u: base.Universe()}
	rs := &ruleset{}
	for i := range rs.std {
		rs.std[i] = true
	}
	e.rs.Store(rs)
	// The cache counters are real handles from day one (not lazily on
	// SetMetrics): CacheStats must work on unregistered engines, and
	// SetMetrics later exports these same counters by reference.
	e.sg.hits = obs.NewCounter()
	e.sg.misses = obs.NewCounter()
	e.sg.invalidations = obs.NewCounter()
	e.sg.evictDependency = obs.NewCounter()
	e.sg.evictRuleset = obs.NewCounter()
	e.sg.evictEpoch = obs.NewCounter()
	e.sg.evictHistory = obs.NewCounter()
	return e
}

// Base returns the underlying store of explicit facts.
func (e *Engine) Base() *store.Store { return e.base }

// Virtual returns the virtual-fact provider.
func (e *Engine) Virtual() *virtual.Provider { return e.vp }

// Universe returns the entity universe.
func (e *Engine) Universe() *fact.Universe { return e.u }

// SetWorkers bounds the number of goroutines a closure build may use.
// n <= 0 restores the default (GOMAXPROCS). Worker count never
// affects the computed closure or its provenance, only build latency.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Include enables a standard rule (§6.1 include operator).
func (e *Engine) Include(r StdRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	if cur.std[r] {
		return
	}
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: cur.userRules}
	next.std[r] = true
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
}

// Exclude disables a standard rule (§6.1 exclude operator).
func (e *Engine) Exclude(r StdRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	if !cur.std[r] {
		return
	}
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: cur.userRules}
	next.std[r] = false
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
}

// Included reports whether a standard rule is active.
func (e *Engine) Included(r StdRule) bool {
	return e.rs.Load().std[r]
}

// AddRule registers a user rule (inference or constraint). Rule names
// are unique; adding a rule with an existing name replaces it.
func (e *Engine) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: slices.Clone(cur.userRules)}
	replaced := false
	for i, have := range next.userRules {
		if have.Name == r.Name {
			if have.Kind == r.Kind && slices.Equal(have.Body, r.Body) && slices.Equal(have.Head, r.Head) {
				// Re-adding an identical rule is a no-op: bumping the
				// config version here would needlessly discard the warm
				// subgoal cache and force a closure rebuild.
				return nil
			}
			next.userRules[i] = &r
			replaced = true
			break
		}
	}
	if !replaced {
		next.userRules = append(next.userRules, &r)
	}
	e.rs.Store(next)
	e.cfgVersion.Store(next.ver)
	return nil
}

// RemoveRule unregisters the named user rule, reporting whether it existed.
func (e *Engine) RemoveRule(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.rs.Load()
	for i, have := range cur.userRules {
		if have.Name == name {
			next := &ruleset{ver: cur.ver + 1, std: cur.std, userRules: slices.Clone(cur.userRules)}
			next.userRules = append(next.userRules[:i], next.userRules[i+1:]...)
			e.rs.Store(next)
			e.cfgVersion.Store(next.ver)
			return true
		}
	}
	return false
}

// Rules returns the registered user rules sorted by name.
func (e *Engine) Rules() []Rule {
	rs := e.rs.Load()
	out := make([]Rule, 0, len(rs.userRules))
	for _, r := range rs.userRules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Individual reports whether rel belongs to R_i, the individual
// relationships to which the generalization and membership rules
// apply (§2.2). A relationship is individual unless it is one of the
// built-in structural relationships or is declared a class
// relationship by a stored fact (rel, ∈, @class).
func (e *Engine) Individual(rel sym.ID) bool {
	if e.u.Special(rel) {
		return false
	}
	return !e.base.Has(fact.Fact{S: rel, R: e.u.Member, T: e.u.RelClassOfClass})
}

// Closure returns the materialized closure store: all stored facts
// plus every fact derivable by the active rules. The returned store
// is sealed (immutable); it is cached until the base store or rule
// configuration changes.
func (e *Engine) Closure() *store.Store {
	return e.current().closure
}

// ClosureEntities returns the active domain of the closure — every
// entity occurring in a materialized fact, sorted. The list is
// computed once per snapshot and shared, so concurrent ∀-evaluation
// does not rescan the closure.
func (e *Engine) ClosureEntities() []sym.ID {
	s := e.current()
	s.entitiesOnce.Do(func() { s.entities = s.closure.Entities() })
	return s.entities
}

func (e *Engine) closureWithProv() (*store.Store, map[fact.Fact]Provenance) {
	s := e.current()
	return s.closure, s.prov
}

// current returns a snapshot consistent with the base store and rule
// configuration, building one if necessary. The warm path is a single
// atomic load plus two version checks — no locks.
func (e *Engine) current() *snapshot {
	if s := e.validSnapshot(); s != nil {
		return s
	}
	return e.rebuild()
}

// validSnapshot returns the published snapshot if it is still
// current, else nil.
func (e *Engine) validSnapshot() *snapshot {
	s := e.snap.Load()
	if s != nil && s.baseVer == e.base.Version() && s.cfgVer == e.cfgVersion.Load() {
		return s
	}
	return nil
}

// rebuild computes and publishes a fresh snapshot under the engine
// lock. Concurrent cold readers coalesce here: whoever wins the lock
// builds once, the rest re-check and reuse the published result.
func (e *Engine) rebuild() *snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.validSnapshot(); s != nil {
		return s
	}
	// Read the versions *before* reading the base facts: if a writer
	// races ahead of the build, the snapshot is labeled with an older
	// version than its contents — the next read then redoes the (pure
	// insert) delta idempotently instead of missing it.
	bv := e.base.Version()
	cv := e.cfgVersion.Load()
	cfg := e.rs.Load()

	// Incremental maintenance: the rules are monotonic, so a batch of
	// pure insertions extends the previous closure by a semi-naive
	// pass seeded with just the new facts, applied to a copy (readers
	// of the old snapshot are never disturbed). Deletions
	// (non-monotonic), rule changes, and a stale history force a full
	// recomputation.
	var t0 time.Time
	if e.m.rebuildNs != nil {
		t0 = time.Now()
	}
	old := e.snap.Load()
	if old != nil && old.cfgVer == cv && bv > old.baseVer {
		if chs, ok := e.base.ChangesSince(old.baseVer); ok {
			if insertsOnly(chs) {
				c, prov := e.applyIncremental(cfg, old, chs)
				s := e.publish(c, prov, bv, cv)
				e.m.rebuildsIncr.Inc()
				if e.m.rebuildNs != nil {
					e.m.rebuildNs.Observe(time.Since(t0).Nanoseconds())
				}
				return s
			}
			// The window contains deletions: delete-and-rederive
			// maintenance (delete.go) repairs just the affected cone
			// instead of recomputing the whole closure, unless the
			// window is ineligible (Individual() flip) or the cone
			// grows past the worth-it bound.
			if c, prov, cone, ok := e.applyDeletes(cfg, old, chs); ok {
				s := e.publish(c, prov, bv, cv)
				e.m.rebuildsDelete.Inc()
				if cone > 0 {
					e.m.deleteProps.Inc()
					e.m.deleteCone.Observe(int64(cone))
				}
				if e.m.rebuildNs != nil {
					e.m.rebuildNs.Observe(time.Since(t0).Nanoseconds())
				}
				return s
			}
		}
	}
	c, prov := e.computeClosure(cfg)
	s := e.publish(c, prov, bv, cv)
	e.m.rebuildsFull.Inc()
	if e.m.rebuildNs != nil {
		e.m.rebuildNs.Observe(time.Since(t0).Nanoseconds())
	}
	return s
}

func (e *Engine) publish(c *store.Store, prov map[fact.Fact]Provenance, bv, cv uint64) *snapshot {
	// Sealing swaps the closure's hash indexes for the compressed
	// posting-list form (store/postings.go); it is the index build of
	// every published snapshot, so its cost is tracked explicitly.
	var t0 time.Time
	if e.m.sealNs != nil {
		t0 = time.Now()
	}
	c.Seal()
	if e.m.sealNs != nil {
		e.m.sealNs.Observe(time.Since(t0).Nanoseconds())
	}
	e.m.sealBuilds.Inc()
	s := &snapshot{closure: c, prov: prov, baseVer: bv, cfgVer: cv}
	e.snap.Store(s)
	return s
}

func insertsOnly(chs []store.Change) bool {
	for _, c := range chs {
		if c.Deleted {
			return false
		}
	}
	return true
}

// applyIncremental returns a new closure extending the previous
// snapshot with the consequences of newly inserted base facts. The
// old snapshot's store and provenance are copied, never mutated, so
// the result is private until published: rebuild publishes it,
// WouldViolate only inspects it.
func (e *Engine) applyIncremental(cfg *ruleset, old *snapshot, chs []store.Change) (*store.Store, map[fact.Fact]Provenance) {
	derived := old.closure.Clone()
	prov := maps.Clone(old.prov)
	var work []fact.Fact
	push := func(d derivation) {
		if derived.Insert(d.f) {
			sortPremises(d.premises)
			prov[d.f] = Provenance{Rule: d.why, Premises: d.premises}
			work = append(work, d.f)
		}
	}
	for _, c := range chs {
		if derived.Insert(c.Fact) {
			work = append(work, c.Fact)
		} else {
			// The fact was already derived; it is now also stored, so
			// its provenance becomes "stored" (base.Has wins in
			// Explain), but its consequences are already present.
		}
	}
	var buf []derivation
	for i := 0; i < len(work); i++ {
		buf = e.deriveFrom(cfg, work[i], derived, false, buf[:0])
		for _, d := range buf {
			push(d)
		}
	}
	return derived, prov
}

// Invalidate drops the cached closure and bumps the subgoal cache
// epoch. Mutations of the base store are detected automatically;
// Invalidate is only needed after out-of-band changes (e.g. a swapped
// virtual provider), which version labels cannot see — hence the
// explicit epoch.
func (e *Engine) Invalidate() {
	e.snap.Store(nil)
	e.sg.epoch.Add(1)
}

// Provenance records how a derived fact was first obtained: the rule
// (a standard rule name, a user rule name, or "axiom") and the
// premise facts the rule combined. Premises may themselves be
// derived; Derive follows them back to stored facts.
type Provenance struct {
	Rule     string
	Premises []fact.Fact
}

// Explain returns how fact f entered the closure: "stored", the name
// of the rule that first derived it, or "" if f is not in the
// (materialized part of the) closure.
func (e *Engine) Explain(f fact.Fact) string {
	c, prov := e.closureWithProv()
	if e.base.Has(f) {
		return "stored"
	}
	if c.Has(f) {
		if why, ok := prov[f]; ok {
			return why.Rule
		}
		return "derived"
	}
	return ""
}

// Derivation is a proof tree for a closure fact: the fact, how it was
// obtained, and — for derived facts — the derivations of its premises.
type Derivation struct {
	Fact     fact.Fact
	Rule     string // "stored", "axiom", or the deriving rule's name
	Premises []*Derivation
}

// Derive returns the proof tree of f, or nil if f is not in the
// materialized closure. The tree is cycle-free: each fact's first
// recorded derivation is used, and recursion stops at stored facts
// and axioms.
func (e *Engine) Derive(f fact.Fact) *Derivation {
	c, prov := e.closureWithProv()
	if !c.Has(f) {
		return nil
	}
	seen := make(map[fact.Fact]bool)
	var build func(fact.Fact) *Derivation
	build = func(g fact.Fact) *Derivation {
		if e.base.Has(g) {
			return &Derivation{Fact: g, Rule: "stored"}
		}
		p, ok := prov[g]
		if !ok {
			return &Derivation{Fact: g, Rule: "derived"}
		}
		d := &Derivation{Fact: g, Rule: p.Rule}
		if seen[g] {
			return d // cut potential sharing cycles short
		}
		seen[g] = true
		for _, prem := range p.Premises {
			d.Premises = append(d.Premises, build(prem))
		}
		return d
	}
	return build(f)
}

// Format renders the proof tree indented, one fact per line.
func (d *Derivation) Format(u *fact.Universe) string {
	var b strings.Builder
	var walk func(*Derivation, int)
	walk = func(n *Derivation, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s  [%s]\n", u.FormatFact(n.Fact), n.Rule)
		for _, p := range n.Premises {
			walk(p, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}

// Has reports whether f is in the database closure, including virtual
// facts and the Δ/∇ conventions (a Δ or ∇ endpoint matches any
// entity, see Match).
func (e *Engine) Has(f fact.Fact) bool {
	found := false
	e.Match(f.S, f.R, f.T, func(fact.Fact) bool {
		found = true
		return false
	})
	return found
}

// Match calls fn for every fact of the database closure matching the
// pattern, where sym.None positions are wildcards. Virtual facts are
// included. The special entities Δ and ∇ act as wildcards in any
// pattern position (every entity satisfies (E,≺,Δ) and (∇,≺,E), so a
// query position that has been generalized to Δ constrains nothing —
// this is exactly how §5.2's retraction uses Δ); matched facts retain
// Δ/∇ in that position so bindings stay faithful to the query.
// Iteration stops when fn returns false; Match reports completion.
func (e *Engine) Match(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	u := e.u
	// Δ/∇ positions match anything; rewrite results back.
	wildS := src == u.Top || src == u.Bottom
	wildR := rel == u.Top || rel == u.Bottom
	wildT := tgt == u.Top || tgt == u.Bottom
	if wildS || wildR || wildT {
		qs, qr, qt := src, rel, tgt
		if wildS {
			qs = sym.None
		}
		if wildR {
			qr = sym.None
		}
		if wildT {
			qt = sym.None
		}
		seen := make(map[fact.Fact]struct{})
		return e.matchConcrete(qs, qr, qt, func(f fact.Fact) bool {
			// A Δ/∇ position stands for a chain of generalization
			// inferences (§3.1), which only apply to individual
			// relationships (plus the ∈/≺ structure itself) — a
			// virtual ≠ or comparator fact is no witness for it.
			if !e.wildcardRel(f.R) {
				return true
			}
			if wildS {
				f.S = src
			}
			if wildR {
				f.R = rel
			}
			if wildT {
				f.T = tgt
			}
			if _, dup := seen[f]; dup {
				return true
			}
			seen[f] = struct{}{}
			return fn(f)
		})
	}
	return e.matchConcrete(src, rel, tgt, fn)
}

// wildcardRel reports whether a fact with relationship rel can
// witness a Δ/∇-wildcard pattern position.
func (e *Engine) wildcardRel(rel sym.ID) bool {
	return e.Individual(rel) || rel == e.u.Gen || rel == e.u.Member
}

// matchConcrete matches against materialized closure plus virtual
// facts, deduplicating only when both sources can emit the same fact.
func (e *Engine) matchConcrete(src, rel, tgt sym.ID, fn func(fact.Fact) bool) bool {
	c := e.Closure()
	u := e.u
	overlap := rel == sym.None || rel == u.Gen || rel == u.Eq || rel == u.Neq ||
		rel == u.Lt || rel == u.Gt || rel == u.Le || rel == u.Ge
	if !overlap {
		return c.Match(src, rel, tgt, fn)
	}
	seen := make(map[fact.Fact]struct{})
	done := c.Match(src, rel, tgt, func(f fact.Fact) bool {
		seen[f] = struct{}{}
		return fn(f)
	})
	if !done {
		return false
	}
	return e.vp.Match(src, rel, tgt, c, func(f fact.Fact) bool {
		if _, dup := seen[f]; dup {
			return true
		}
		return fn(f)
	})
}

// MatchAll collects matching closure facts into a slice.
func (e *Engine) MatchAll(src, rel, tgt sym.ID) []fact.Fact {
	var out []fact.Fact
	e.Match(src, rel, tgt, func(f fact.Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// ClosureSize returns the number of materialized closure facts
// (stored + derived, excluding virtual families).
func (e *Engine) ClosureSize() int { return e.Closure().Len() }

// EstimateCount estimates the number of closure facts matching the
// pattern in O(1) from the closure store's index bucket sizes.
// Virtual families are not included; patterns over purely virtual
// relationships estimate to 0 and should be scheduled late by
// planners (they are usually guards over bound values anyway).
func (e *Engine) EstimateCount(src, rel, tgt sym.ID) int {
	return e.Closure().EstimateCount(src, rel, tgt)
}

// buildWorkers returns the number of goroutines a closure build may
// use for a round of n frontier facts. Called with e.mu held.
func (e *Engine) buildWorkers(n int) int {
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// String summarizes the engine configuration.
func (e *Engine) String() string {
	rs := e.rs.Load()
	on := 0
	for _, b := range rs.std {
		if b {
			on++
		}
	}
	return fmt.Sprintf("rules.Engine{std %d/%d, user %d, base %d facts}",
		on, int(numStdRules), len(rs.userRules), e.base.Len())
}
