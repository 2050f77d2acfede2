package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"

	lsdb "repro"
	"repro/internal/browse"
	"repro/internal/fact"
	"repro/internal/sym"
)

// readKind is one operation of the read mix. The mix is the same on
// every workload; between is left out (see README.md).
type readKind uint8

const (
	kNavigate readKind = iota
	kQuery
	kDerive
	kDeriveTrace
	kTry
	kProbe
	kSearch
	kBatch
	numKinds
)

var kindNames = [numKinds]string{"navigate", "query", "derive", "derive_trace", "try", "probe", "search", "batch"}

// endpoint is the serve endpoint a kind is answered by.
func (k readKind) endpoint() string {
	if k == kDeriveTrace {
		return "derive"
	}
	return kindNames[k]
}

// kindShare is the read mix, in percent. It starts from lsdb-load's
// browse session (internal/bench/load.go): 15% search, and the other
// 85% split query 35, navigate 20, derive 15, between 10, try 10,
// batch 10. between is left out (README.md) and probe, which lsdb-load
// does not send, takes its 10; a third of derive's 15 is sent with
// trace=1.
var kindShare = func() [numKinds]float64 {
	rest := [numKinds]float64{kNavigate: 20, kQuery: 35, kDerive: 10, kDeriveTrace: 5, kTry: 10, kProbe: 10, kBatch: 10}
	var out [numKinds]float64
	for k, w := range rest {
		out[k] = w * 0.85
	}
	out[kSearch] = 15
	return out
}()

const (
	pageLimit    = 20 // navigate and try page size
	traceDepth   = 2  // derive?trace=1 depth
	previewSize  = 5  // search preview size, one search in five
	batchOps     = 8  // operations per /batch
	searchK      = 10 // the search default page
	previewEvery = 5
)

// readOp is one read request. Its fields mirror the endpoint's
// parameters.
type readOp struct {
	kind    readKind
	entity  string // navigate, try
	q       string // query, probe, search
	s, r, t string // derive
	preview int    // search
	sub     []readOp
}

// rels are the relationships queries and probes ask about: the
// generated relationships, their inversions, and membership.
var rels = []string{
	"REL-00", "REL-01", "REL-02", "REL-03", "REL-04", "REL-05", "REL-06", "REL-07",
	"REL-INV-00", "REL-INV-01", "REL-INV-02", "REL-INV-03", "in",
}

// opGen draws read operations from a seeded stream. Entities are
// Zipf-skewed over the world's rank order, as when users start from
// search and hubs dominate. Reads only name world entities, never the
// W-entities the write stream creates (W0000A, W0000B, …).
//
// Draws are stratified so that runs with different seeds do the same
// amount of work: kinds and entity ranks are both drawn from decks of
// equal-probability strata. The seed decides the order and the draw
// within each stratum.
type opGen struct {
	rng     *rand.Rand
	names   []string
	derived func(entity string) [][3]string

	entities *strata // Zipf over entity ranks
	kinds    *strata // the read mix
	subKinds *strata // the read mix without batch, for a batch's operations
}

// zipfExponent skews entity picks, as the repo's Zipf worlds and
// search probes do (gen.ScaleConfig's default skew): the top-ranked
// entity gets about a quarter of them.
const zipfExponent = 1.2

func newOpGen(seed int64, names []string, derived func(string) [][3]string) *opGen {
	zipf := make([]float64, len(names))
	for i := range zipf {
		zipf[i] = math.Pow(float64(i+1), -zipfExponent)
	}
	sub := kindShare
	sub[kBatch] = 0
	return &opGen{
		rng: rand.New(rand.NewSource(seed)), names: names, derived: derived,
		entities: newStrata(zipf, 64),
		kinds:    newStrata(kindShare[:], 20),
		subKinds: newStrata(sub[:], 20),
	}
}

// strata draws indices in proportion to weights, from decks of n
// equal-probability strata: each deck visits every stratum once in a
// shuffled order and draws uniformly within it, so any n draws in a row
// come close to the exact shares whatever the seed.
type strata struct {
	cdf  []float64
	n    int
	deck []int
}

func newStrata(weights []float64, n int) *strata {
	s := &strata{cdf: make([]float64, len(weights)), n: n}
	sum := 0.0
	for i, w := range weights {
		sum += w
		s.cdf[i] = sum
	}
	for i := range s.cdf {
		s.cdf[i] /= sum
	}
	return s
}

func (s *strata) draw(rng *rand.Rand) int {
	if len(s.deck) == 0 {
		s.deck = rng.Perm(s.n)
	}
	u := (float64(s.deck[0]) + rng.Float64()) / float64(s.n)
	s.deck = s.deck[1:]
	return min(sort.SearchFloat64s(s.cdf, u), len(s.cdf)-1)
}

func (g *opGen) entity() string { return g.names[g.entities.draw(g.rng)] }

// next returns the next read of the mix.
func (g *opGen) next() readOp {
	k := readKind(g.kinds.draw(g.rng))
	if k == kBatch {
		op := readOp{kind: kBatch}
		for len(op.sub) < batchOps {
			op.sub = append(op.sub, g.single(readKind(g.subKinds.draw(g.rng))))
		}
		return op
	}
	return g.single(k)
}

func (g *opGen) single(k readKind) readOp {
	e := g.entity()
	op := readOp{kind: k}
	switch k {
	case kNavigate, kTry:
		op.entity = e
	case kQuery:
		op.q = fmt.Sprintf("(%s, %s, ?x)", e, rels[g.rng.Intn(len(rels))])
	case kProbe:
		op.q = fmt.Sprintf("(%s, %s, %s)", e, rels[g.rng.Intn(len(rels))], g.entity())
	case kDerive, kDeriveTrace:
		// Three in four ask about a fact of the closure (stored or
		// derived), the rest about a random triple, usually absent.
		if fs := g.derived(e); len(fs) > 0 && g.rng.Intn(4) > 0 {
			f := fs[g.rng.Intn(len(fs))]
			op.s, op.r, op.t = f[0], f[1], f[2]
		} else {
			op.s, op.r, op.t = e, rels[g.rng.Intn(len(rels))], g.entity()
		}
	case kSearch:
		op.q = e
		if g.rng.Intn(previewEvery) == 0 {
			op.preview = previewSize
		}
	}
	return op
}

// path is the GET request of a single read (without ?db=).
func (op readOp) path() string {
	v := url.Values{}
	switch op.kind {
	case kNavigate, kTry:
		v.Set("entity", op.entity)
		v.Set("limit", fmt.Sprint(pageLimit))
	case kQuery, kProbe:
		v.Set("q", op.q)
	case kDerive, kDeriveTrace:
		v.Set("s", op.s)
		v.Set("r", op.r)
		v.Set("t", op.t)
		if op.kind == kDeriveTrace {
			v.Set("trace", "1")
			v.Set("depth", fmt.Sprint(traceDepth))
		}
	case kSearch:
		v.Set("q", op.q)
		if op.preview > 0 {
			v.Set("preview", fmt.Sprint(op.preview))
		}
	}
	return "/" + op.kind.endpoint() + "?" + v.Encode()
}

// batchJSON is one /batch operation, as serve decodes it.
type batchJSON struct {
	Op      string `json:"op"`
	Q       string `json:"q,omitempty"`
	Entity  string `json:"entity,omitempty"`
	S       string `json:"s,omitempty"`
	R       string `json:"r,omitempty"`
	T       string `json:"t,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	Preview int    `json:"preview,omitempty"`
}

// body is the POST /batch body of a batch op.
func (op readOp) body() []byte {
	ops := make([]batchJSON, len(op.sub))
	for i, s := range op.sub {
		b := batchJSON{Op: s.kind.endpoint(), Q: s.q, Entity: s.entity, S: s.s, R: s.r, T: s.t, Preview: s.preview}
		switch s.kind {
		case kNavigate, kTry:
			b.Limit = pageLimit
		case kDeriveTrace:
			b.Trace, b.Depth = true, traceDepth
		}
		ops[i] = b
	}
	out, _ := json.Marshal(map[string]any{"ops": ops}) // plain strings and ints always marshal
	return out
}

// key identifies a read for answer checking: equal keys must get
// equal answers (modulo the volatile fields dropped by normalise).
func (op readOp) key() string {
	if op.kind == kBatch {
		return "/batch " + string(op.body())
	}
	return op.path()
}

// expect computes the answer to op in-process through the lsdb facade,
// in the JSON shape the endpoint answers with, normalised.
func expect(db *lsdb.Database, op readOp) any {
	var v any
	switch op.kind {
	case kNavigate:
		v = navigateAnswer(db, op.entity, pageLimit)
	case kQuery:
		rows, err := db.Query(op.q)
		if err != nil {
			return map[string]any{"error": err.Error()}
		}
		v = map[string]any{"vars": rows.Vars, "tuples": rows.Tuples, "true": rows.True}
	case kDerive:
		v = deriveAnswer(db, op.s, op.r, op.t)
	case kDeriveTrace:
		m := deriveAnswer(db, op.s, op.r, op.t)
		m["trace"] = "present"
		v = m
	case kTry:
		v = tryAnswer(db, op.entity, pageLimit)
	case kProbe:
		v = probeAnswer(db, op.q)
	case kSearch:
		v = searchAnswer(db, op.q, op.preview)
	case kBatch:
		results := make([]any, len(op.sub))
		for i, s := range op.sub {
			results[i] = map[string]any{"status": 200, "body": expect(db, s)}
		}
		v = map[string]any{"results": results}
	}
	return normalise(op, roundTrip(v))
}

// roundTrip passes v through JSON so it compares with a decoded
// response (numbers become float64, structs become maps).
func roundTrip(v any) any {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return err.Error()
	}
	return out
}

// normalise reduces an answer to what equal requests must agree on.
// A search's index_version moves with every write. The order of query
// tuples follows the closure's internal order, and a derived fact's
// proof is its first recorded derivation, both of which depend on how
// the closure was maintained; so tuples compare as sets, and a derived
// fact compares by holding and source. A requested trace must be
// present and non-empty; its subgoal-cache dispositions vary.
func normalise(op readOp, v any) any {
	m, ok := v.(map[string]any)
	if !ok {
		return v
	}
	switch op.kind {
	case kSearch:
		delete(m, "index_version")
	case kQuery:
		sortRows(m["tuples"])
	case kProbe:
		if ss, ok := m["successes"].([]any); ok {
			for _, s := range ss {
				if sm, ok := s.(map[string]any); ok {
					sortRows(sm["tuples"])
				}
			}
			sortRows(ss)
		}
	case kDerive, kDeriveTrace:
		if m["source"] == "derived" {
			delete(m, "tree")
			delete(m, "rule")
		}
		if op.kind == kDeriveTrace {
			if tr, ok := m["trace"].([]any); ok && len(tr) > 0 {
				m["trace"] = "present"
			}
		}
	case kBatch:
		if rs, ok := m["results"].([]any); ok && len(rs) == len(op.sub) {
			for i, r := range rs {
				if rm, ok := r.(map[string]any); ok {
					rm["body"] = normalise(op.sub[i], rm["body"])
				}
			}
		}
	}
	return m
}

// sortRows orders a JSON list by each element's encoding.
func sortRows(v any) {
	rows, ok := v.([]any)
	if !ok {
		return
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		b, _ := json.Marshal(r) // decoded JSON always re-encodes
		keys[i] = string(b)
	}
	sort.Sort(byKey{rows, keys})
}

type byKey struct {
	rows []any
	keys []string
}

func (b byKey) Len() int           { return len(b.rows) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

type relGroupJSON struct {
	Rel      string   `json:"rel"`
	Entities []string `json:"entities"`
}

// navigateAnswer is the first page of entity's neighborhood: classes,
// then outgoing, then incoming entities, in the browser's order.
func navigateAnswer(db *lsdb.Database, entity string, limit int) any {
	u := db.Universe()
	n := db.Navigate(entity)
	total := n.Degree()
	left := limit
	page := &browse.Neighborhood{Entity: n.Entity}
	for _, c := range n.Classes {
		if left > 0 {
			page.Classes = append(page.Classes, c)
			left--
		}
	}
	cut := func(src []browse.RelGroup) []browse.RelGroup {
		var out []browse.RelGroup
		for _, g := range src {
			var es []sym.ID
			for _, e := range g.Entities {
				if left > 0 {
					es = append(es, e)
					left--
				}
			}
			if len(es) > 0 {
				out = append(out, browse.RelGroup{Rel: g.Rel, Entities: es})
			}
		}
		return out
	}
	page.Out = cut(n.Out)
	page.In = cut(n.In)
	conv := func(gs []browse.RelGroup) []relGroupJSON {
		out := make([]relGroupJSON, len(gs))
		for i, g := range gs {
			names := make([]string, len(g.Entities))
			for j, id := range g.Entities {
				names[j] = u.Name(id)
			}
			out[i] = relGroupJSON{Rel: u.Name(g.Rel), Entities: names}
		}
		return out
	}
	var classes []string
	for _, id := range page.Classes {
		classes = append(classes, u.Name(id))
	}
	return map[string]any{
		"entity": entity, "classes": classes, "out": conv(page.Out), "in": conv(page.In),
		"table": page.Table(u).Render(), "total": total, "offset": 0,
	}
}

func deriveAnswer(db *lsdb.Database, s, r, t string) map[string]any {
	d := db.Derive(s, r, t)
	switch {
	case d != nil && d.Rule == "stored":
		return map[string]any{"holds": true, "source": "stored", "virtual": false, "tree": d.Format(db.Universe())}
	case d != nil:
		return map[string]any{"holds": true, "source": "derived", "virtual": false, "rule": d.Rule, "tree": d.Format(db.Universe())}
	case db.HasStored(s, r, t):
		return map[string]any{"holds": true, "source": "stored", "virtual": false, "tree": ""}
	case db.Has(s, r, t):
		return map[string]any{"holds": true, "source": "virtual", "virtual": true, "tree": ""}
	}
	return map[string]any{"holds": false, "source": "absent", "virtual": false, "tree": ""}
}

type factJSON struct {
	S string `json:"s"`
	R string `json:"r"`
	T string `json:"t"`
}

func tryAnswer(db *lsdb.Database, entity string, limit int) any {
	u := db.Universe()
	all := db.Try(entity)
	var facts []factJSON
	for i, f := range all {
		if i == limit {
			break
		}
		facts = append(facts, factJSON{u.Name(f.S), u.Name(f.R), u.Name(f.T)})
	}
	return map[string]any{"facts": facts, "total": len(all), "offset": 0}
}

func probeAnswer(db *lsdb.Database, q string) any {
	out, err := db.Probe(q)
	if err != nil {
		return map[string]any{"error": err.Error()}
	}
	u := db.Universe()
	type success struct {
		Query   string     `json:"query"`
		Changes []string   `json:"changes"`
		Tuples  [][]string `json:"tuples"`
	}
	var successes []success
	for _, w := range out.Waves {
		for _, e := range w.Successes() {
			s := success{Query: e.Q.String()}
			for _, c := range e.Changes {
				s.Changes = append(s.Changes, c.Describe(u))
			}
			for _, tp := range e.Result.Tuples {
				s.Tuples = append(s.Tuples, names(u, tp))
			}
			successes = append(successes, s)
		}
	}
	var unknown []string
	for _, id := range out.Unknown {
		unknown = append(unknown, u.Name(id))
	}
	return map[string]any{
		"succeeded": out.Succeeded(), "menu": out.Menu(u), "waves": len(out.Waves),
		"critical": out.Critical, "exhausted": out.Exhausted, "unknown": unknown, "successes": successes,
	}
}

func names(u *fact.Universe, ids []sym.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = u.Name(id)
	}
	return out
}

func searchAnswer(db *lsdb.Database, q string, preview int) any {
	res := db.Search(q, lsdb.SearchOptions{K: searchK})
	hits := make([]map[string]any, 0, len(res.Hits))
	for _, h := range res.Hits {
		hit := map[string]any{
			"entity": h.Name, "score": h.Score,
			"signals":    map[string]float64{"term": h.TermScore, "taxonomy": h.TaxScore, "hub": h.HubScore},
			"exact_name": h.ExactName, "matched": h.Matched, "degree": h.Degree,
		}
		if preview > 0 {
			hit["preview"] = navigateAnswer(db, h.Name, preview)
		}
		hits = append(hits, hit)
	}
	return map[string]any{"q": q, "terms": res.Terms, "total": res.Total, "offset": 0, "k": searchK, "hits": hits}
}
