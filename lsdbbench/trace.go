package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	lsdb "repro"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/search"
)

// The traced run replays the first replayWindow of the open loop's
// seeded schedule one operation at a time, twice, each time on a fresh
// cluster: once untraced and once traced, doing the same calls. For
// each operation the benchmark first makes the calls the handler makes
// into each layer's public functions, on a layer replica — a second
// database opened from the same data directory and given the same
// writes in the same order — because a span recorded from outside the
// program cannot open inside Mux().ServeHTTP; then it calls
// Mux().ServeHTTP on the cluster. serve's own time is the ServeHTTP
// span minus the layer spans of the same operation.
const replayWindow = 10 * time.Second

// span is one traced call.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: root
	Op     int              `json:"op"`     // schedule position; -1 for set-up
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Delta  map[string]int64 `json:"delta,omitempty"` // layer-replica counter moves inside the span

	before []int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	off   bool
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	ctr   counters
}

// counters are the layer replica's registry handles read at every span
// boundary, so the work each span did is measured where it happened.
type counters struct {
	names []string
	read  []func() int64
}

func newCounters(reg *obs.Registry) counters {
	var c counters
	add := func(name string, f func() int64) {
		c.names = append(c.names, name)
		c.read = append(c.read, f)
	}
	ctr := func(name string, labels ...string) func() int64 {
		h := reg.Counter(name, labels...)
		return func() int64 { return int64(h.Value()) }
	}
	add("facts_scanned", ctr("lsdb_ondemand_facts_scanned_total"))
	add("subgoal_hits", ctr("lsdb_subgoal_hits_total"))
	add("subgoal_misses", ctr("lsdb_subgoal_misses_total"))
	for _, r := range []string{"dependency", "ruleset", "epoch", "history"} {
		add("subgoal_evicted_"+r, ctr("lsdb_subgoal_evicted_total", "reason", r))
	}
	for _, k := range []string{"incremental", "delete", "full"} {
		add("rebuilds_"+k, ctr("lsdb_rules_rebuilds_total", "kind", k))
	}
	add("search_builds", ctr("lsdb_search_index_builds_total"))
	add("search_queries", ctr("lsdb_search_queries_total"))
	add("neighborhoods", ctr("lsdb_browse_steps_total", "kind", "neighborhood"))
	add("commits", ctr("lsdb_store_commits_total"))
	add("fsyncs", func() int64 { return int64(reg.Value("lsdb_wal_fsyncs_total")) })
	return c
}

func (c counters) snapshot() []int64 {
	out := make([]int64, len(c.read))
	for i, f := range c.read {
		out[i] = f()
	}
	return out
}

// begin opens a span; end closes it. A tracer that is off records
// nothing: its replay does the same calls without spans.
func (t *tracer) begin(parent *span, op int, name string) *span {
	if t.off {
		return &span{}
	}
	s := &span{Op: op, Name: name, before: t.ctr.snapshot()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s *span) {
	if t.off {
		return
	}
	s.End = int64(time.Since(t.t0))
	for i, v := range t.ctr.snapshot() {
		if d := v - s.before[i]; d != 0 {
			if s.Delta == nil {
				s.Delta = map[string]int64{}
			}
			s.Delta[t.ctr.names[i]] = d
		}
	}
	s.before = nil
}

// span runs fn inside a span.
func (t *tracer) span(parent *span, op int, name string, fn func()) {
	if t.off {
		fn()
		return
	}
	s := t.begin(parent, op, name)
	fn()
	t.end(s)
}

// interval records a span whose bounds were taken elsewhere.
func (t *tracer) interval(parent *span, op int, name string, start, end time.Time) {
	if t.off {
		return
	}
	s := &span{Op: op, Name: name, Parent: parent.ID, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is the layer replica: the database whose public layer
// functions the traced replay calls.
type layers struct {
	db     *lsdb.Database
	log    string
	idxVer uint64 // the search index version last built
}

// serveHTTP runs one request through the cluster's mux in-process and
// returns the status and body.
func serveHTTP(h http.Handler, method, target string, body []byte) (int, []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// replayItem sends one schedule item through ServeHTTP: a read to the
// read tenant (on replica with min_lsn), a write to the primary.
func replayRequest(c *cluster, it schedItem, stream []writeOp, minLSN uint64) (method, target string, body []byte) {
	if it.write >= 0 {
		w := stream[it.write]
		if w.del {
			v := url.Values{"db": {primaryTenant}, "s": {w.s}, "r": {w.r}, "t": {w.t}}
			return http.MethodDelete, "/facts?" + v.Encode(), nil
		}
		b, _ := json.Marshal(factJSON{w.s, w.r, w.t}) // plain strings always marshal
		return http.MethodPost, "/facts?db=" + primaryTenant, b
	}
	q := "db=" + c.readTenant()
	if c.fl != nil {
		q += fmt.Sprintf("&min_lsn=%d", minLSN)
	}
	if it.read.kind == kBatch {
		return http.MethodPost, "/batch?" + q, it.read.body()
	}
	return http.MethodGet, it.read.path() + "&" + q, nil
}

// writeLSN extracts the commit LSN from a /facts answer.
func writeLSN(code int, body []byte) (uint64, error) {
	var res struct {
		LSN uint64 `json:"lsn"`
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("write answered %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	return res.LSN, nil
}

// warm sends the warm-up reads through ServeHTTP and, when l is set,
// through the layer replica's facade, so both start from the state the
// timed window started from.
func warm(c *cluster, l *layers, reads []readOp) {
	for _, op := range reads {
		m, target, body := replayRequest(c, schedItem{write: -1, read: op}, nil, c.primary.LSN())
		serveHTTP(c.mux, m, target, body)
		if l != nil {
			expect(l.db, op)
		}
	}
}

// replay replays items one at a time: for each operation the layer
// calls on the layer replica, then the ServeHTTP call on the cluster,
// inside spans when t is on. It returns each read's time, layer calls
// and ServeHTTP together, and records in served each write's commit
// time on the served primary.
func replay(t *tracer, c *cluster, l *layers, items []schedItem, stream []writeOp, answers *answerLog, served map[int]time.Duration) ([]float64, error) {
	lsn := c.primary.LSN()
	var opMS []float64
	writes := int32(0) // writes replayed so far: the state a read observes
	commitNs := c.primary.Metrics().Histogram("lsdb_store_commit_ns")
	var lagWG sync.WaitGroup
	defer lagWG.Wait()
	var lagErr error
	var lagMu sync.Mutex
	for i, it := range items {
		name := "op.write"
		if it.write < 0 {
			name = "op." + kindNames[it.read.kind]
		}
		opStart := time.Now()
		root := t.begin(nil, i, name)
		if it.write >= 0 {
			w := stream[it.write]
			var err error
			t.span(root, i, "store.commit", func() {
				if w.del {
					_, err = l.db.RetractFact(l.db.Universe().NewFact(w.s, w.r, w.t))
				} else {
					err = l.db.Assert(w.s, w.r, w.t)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("layer replica: %w", err)
			}
		} else {
			l.trace(t, root, i, it.read)
			if c.fl != nil {
				t.span(root, i, "repl.min_lsn_wait", func() { c.fl.WaitLSN(lsn, requestTimeout) })
			}
		}
		m, target, body := replayRequest(c, it, stream, lsn)
		var code int
		var out []byte
		commit0 := commitNs.Sum()
		t.span(root, i, "serve.request", func() { code, out = serveHTTP(c.mux, m, target, body) })
		ackAt := time.Now()
		if it.write >= 0 {
			writes++
			// The served primary's own commit time inside this request:
			// its durability wait, read from its registry at the span's
			// boundaries.
			served[i] = time.Duration(commitNs.Sum() - commit0)
			v, err := writeLSN(code, out)
			if err != nil {
				return nil, err
			}
			lsn = v
			if c.fl != nil {
				lagWG.Add(1)
				go func(op int, want uint64) {
					defer lagWG.Done()
					if _, ok := c.fl.WaitLSN(want, requestTimeout); !ok {
						lagMu.Lock()
						lagErr = fmt.Errorf("follower did not apply LSN %d", want)
						lagMu.Unlock()
						return
					}
					t.interval(root, op, "repl.lag", ackAt, time.Now())
				}(i, v)
			}
		} else {
			if code != http.StatusOK {
				return nil, fmt.Errorf("%s answered %d", target, code)
			}
			opMS = append(opMS, ms(time.Since(opStart)))
			answers.record(it.read, out, stateRange{writes, writes})
		}
		t.end(root)
	}
	lagWG.Wait()
	return opMS, lagErr
}

// trace makes, on the layer replica, the layer calls the read's
// handler makes, each inside a span.
func (l *layers) trace(t *tracer, parent *span, op int, r readOp) {
	db := l.db
	closure := func() {
		if !db.Engine().Warm() {
			t.span(parent, op, "rules.publish", func() { db.Engine().Closure() })
		}
	}
	switch r.kind {
	case kNavigate:
		closure()
		t.span(parent, op, "browse.neighborhood", func() { db.Browser().Neighborhood(db.Entity(r.entity)) })
	case kQuery:
		closure()
		var q *query.Query
		var err error
		t.span(parent, op, "query.parse", func() { q, err = db.Parse(r.q) })
		if err == nil {
			t.span(parent, op, "query.eval", func() { db.Eval(q) })
		}
	case kDerive, kDeriveTrace:
		closure()
		t.span(parent, op, "rules.match", func() {
			if db.Derive(r.s, r.r, r.t) == nil && !db.HasStored(r.s, r.r, r.t) {
				db.Has(r.s, r.r, r.t)
			}
		})
		if r.kind == kDeriveTrace {
			t.span(parent, op, "rules.ondemand", func() { db.HasBoundedTrace(r.s, r.r, r.t, traceDepth, obs.NewTrace()) })
		}
	case kTry:
		closure()
		t.span(parent, op, "ops.try", func() { ops.Try(db.Engine(), db.Entity(r.entity)) })
	case kProbe:
		closure()
		var q *query.Query
		var err error
		t.span(parent, op, "query.parse", func() { q, err = db.Parse(r.q) })
		if err == nil {
			t.span(parent, op, "probe.probe", func() { db.Prober().Probe(q) })
		}
	case kSearch:
		if db.Store().Version() != l.idxVer {
			t.span(parent, op, "search.refresh", func() { l.idxVer = db.Searcher().Refresh().Version })
		}
		var res *search.Result
		t.span(parent, op, "search.query", func() { res = db.Searcher().Search(r.q, search.Options{K: searchK}) })
		if r.preview > 0 {
			closure()
			for _, h := range res.Hits {
				t.span(parent, op, "browse.neighborhood", func() { db.Browser().Neighborhood(db.Entity(h.Name)) })
			}
		}
	case kBatch:
		for _, s := range r.sub {
			l.trace(t, parent, op, s)
		}
	}
}

// spanStats groups spans by name.
func spanStats(spans []*span) map[string][]*span {
	by := map[string][]*span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	return by
}

func durationsMS(ss []*span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

func meanUS(ss []*span) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range ss {
		sum += s.dur()
	}
	return float64(sum) / float64(len(ss)) / float64(time.Microsecond)
}

// module is the layer a span name belongs to ("rules.publish" → "rules").
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each module's total self time in milliseconds: a
// layer span's duration minus the part its children cover, and for
// serve, each ServeHTTP span minus the layer spans of the same
// operation.
func selfTimes(spans []*span, modules []string) map[string]float64 {
	children := map[int][]*span{}
	byOp := map[int][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = 0
	}
	for _, s := range spans {
		mod := module(s.Name)
		if mod == "op" {
			continue
		}
		if s.Name == "serve.request" {
			out["serve"] += ms(serveSelf(s, byOp[s.Op]))
			continue
		}
		self := s.dur() - covered(s, children[s.ID])
		out[mod] += ms(self)
	}
	return out
}

// serveSelf is a ServeHTTP span minus the layer spans of its operation
// (the work the handler did in the layers, measured on the replica).
func serveSelf(s *span, same []*span) time.Duration {
	d := s.dur()
	for _, o := range same {
		if o != s && o.Name != "op" && !strings.HasPrefix(o.Name, "op.") && module(o.Name) != "repl" && o.Name != "serve.request" {
			d -= o.dur()
		}
	}
	return d
}

// covered is the length of the union of the children's intervals
// inside s.
func covered(s *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}
