package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	lsdb "repro"
)

// reference builds the in-process reference database: the world plus
// every acknowledged write, applied in acknowledgement order.
func reference(acks []ack) *lsdb.Database {
	db, _ := buildWorld()
	for _, a := range acks {
		if a.w.del {
			db.Retract(a.w.s, a.w.r, a.w.t)
		} else {
			db.MustAssert(a.w.s, a.w.r, a.w.t)
		}
	}
	return db
}

// mismatch is one answer that differs from the reference.
type mismatch struct {
	key       string
	count     int
	got, want string
}

// A window read may name the write stream's W-entities: K3 membership
// reaches world answers through member inheritance, and an edge of a
// member reaches them through its classes. The stream touches one pair
// of W-entities at a time, so its state after any prefix is one of four
// shapes — no fact, the edge, the edge and the membership, or the
// membership — over that pair. Window answers are checked against a
// reference per shape built over a canonical pair; every W-entity name
// has the same length, so renaming the pair keeps an answer's order and
// layout.
const canonA, canonB = "W9999A", "W9999B"

// wstate is the stream's state after some prefix of writes.
type wstate struct {
	a, b         string
	edge, member bool
}

func (w wstate) shape() [2]bool { return [2]bool{w.edge, w.member} }

// streamStates returns the state after each prefix of the stream,
// for s = 0..len(stream).
func streamStates(stream []writeOp) []wstate {
	out := make([]wstate, len(stream)+1)
	var cur wstate
	for i, w := range stream {
		if cur.a != w.s && !cur.edge && !cur.member {
			cur = wstate{}
		}
		if w.r == "in" {
			cur.member = !w.del
			cur.a = w.s
		} else {
			cur.edge = !w.del
			cur.a, cur.b = w.s, w.t
		}
		out[i+1] = cur
	}
	return out
}

// verdict counts the checked answers.
type verdict struct {
	wrong int // answers that match no state the read could observe
	torn  int // answers of reads that overlapped a write and match none of its states
	bad   []mismatch
}

// verifyAnswers checks every distinct answer the run logged. An answer
// is right when it equals the reference answer in one of the states
// the read may have observed.
//
// A read that overlapped a write can be torn: the serving layer reads
// the closure once per pattern, so one /navigate can take its outgoing
// half from the closure before a write and its incoming half from the
// closure after it, an answer that matches neither state. Such answers
// are counted as torn, not wrong, and reported: the defect is known
// (one read view per request, ROADMAP item 3), and every read that
// overlapped no write must still match its state exactly.
func verifyAnswers(log *answerLog, states []wstate) verdict {
	// Build the references of the shapes the reads could observe, two
	// at a time.
	shapes := map[[2]bool]bool{}
	for _, a := range log.byKey {
		for _, rs := range a.ranges {
			for r := range rs {
				for _, st := range states[r[0] : r[1]+1] {
					shapes[st.shape()] = true
				}
			}
		}
	}
	var mu sync.Mutex
	refs := map[[2]bool]*lsdb.Database{}
	var bg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for sh := range shapes {
		bg.Add(1)
		go func(sh [2]bool) {
			defer bg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			db, _ := buildWorld()
			if sh[0] {
				db.MustAssert(canonA, "REL-06", canonB)
			}
			if sh[1] {
				db.MustAssert(canonA, "in", "K3")
			}
			db.ClosureLen()
			mu.Lock()
			refs[sh] = db
			mu.Unlock()
		}(sh)
	}
	bg.Wait()
	ref := func(st wstate) *lsdb.Database { return refs[st.shape()] }

	want := map[string]any{}
	expected := func(op readOp, st wstate) any {
		k := fmt.Sprint(st.shape()) + op.key()
		mu.Lock()
		v, ok := want[k]
		mu.Unlock()
		if !ok {
			v = expect(ref(st), op)
			mu.Lock()
			want[k] = v
			mu.Unlock()
		}
		return v
	}

	keys := make([]string, 0, len(log.byKey))
	for k := range log.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var v verdict
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				a := log.byKey[keys[i]]
				for sum, body := range a.bodies {
					for r, n := range a.ranges[sum] {
						if answerInRange(a.op, body, states[r[0]:r[1]+1], expected) {
							continue
						}
						torn := states[r[0]] != states[r[1]]
						mu.Lock()
						if torn {
							v.torn += n
						} else {
							v.wrong += n
							if len(v.bad) < 3 {
								w, _ := json.Marshal(expected(a.op, states[r[0]]))
								v.bad = append(v.bad, mismatch{fmt.Sprintf("%s (state %d)", keys[i], r[0]), n, clip(string(body)), clip(string(w))})
							}
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return v
}

func answerInRange(op readOp, body []byte, states []wstate, expected func(readOp, wstate) any) bool {
	tried := map[wstate]bool{}
	for _, st := range states {
		if tried[st] {
			continue
		}
		tried[st] = true
		b := body
		if st.a != "" {
			b = bytes.ReplaceAll(b, []byte(st.a), []byte(canonA))
		}
		if st.b != "" {
			b = bytes.ReplaceAll(b, []byte(st.b), []byte(canonB))
		}
		var got any
		if json.Unmarshal(b, &got) == nil && reflect.DeepEqual(normalise(op, got), expected(op, st)) {
			return true
		}
	}
	return false
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "…"
	}
	return s
}

// probeSet is the post-window correctness probe: a seeded sample of the
// read mix plus reads of every entity the acknowledged writes touched,
// asked over HTTP (on replica: of the follower, at the primary's final
// LSN) and compared with the reference.
func probeSet(seed int64, names []string, derived func(string) [][3]string, acks []ack) []readOp {
	g := newOpGen(seed^0x5eed, names, derived)
	var ops []readOp
	for i := 0; i < 60; i++ {
		ops = append(ops, g.next())
	}
	seen := map[string]bool{}
	for _, a := range acks {
		if seen[a.w.s+a.w.t] {
			continue
		}
		seen[a.w.s+a.w.t] = true
		ops = append(ops,
			readOp{kind: kQuery, q: fmt.Sprintf("(%s, REL-06, ?x)", a.w.s)},
			readOp{kind: kQuery, q: fmt.Sprintf("(%s, in, ?x)", a.w.s)},
			readOp{kind: kQuery, q: "(?x, in, K0)"},
			readOp{kind: kNavigate, entity: a.w.s},
			readOp{kind: kNavigate, entity: a.w.t},
			readOp{kind: kTry, entity: a.w.s},
			readOp{kind: kDerive, s: a.w.s, r: "in", t: "K0"},
			readOp{kind: kSearch, q: a.w.s},
		)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runProbeSet sends the probe set and returns how many answers were
// wrong or missing.
func runProbeSet(c *client, ops []readOp, ref *lsdb.Database, minLSN uint64) (int, []mismatch) {
	wrong := 0
	var bad []mismatch
	for _, op := range ops {
		q := "db=" + c.readDB
		if c.replica {
			q += fmt.Sprintf("&min_lsn=%d", minLSN)
		}
		var req *http.Request
		if op.kind == kBatch {
			req, _ = http.NewRequest(http.MethodPost, c.base+"/batch?"+q, bytes.NewReader(op.body()))
		} else {
			req, _ = http.NewRequest(http.MethodGet, c.base+op.path()+"&"+q, nil)
		}
		code, body, err := c.do(req)
		want := expect(ref, op)
		var got any
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &got) == nil &&
			reflect.DeepEqual(normalise(op, got), want) {
			continue
		}
		wrong++
		if len(bad) < 3 {
			w, _ := json.Marshal(want)
			bad = append(bad, mismatch{op.key(), 1, clip(fmt.Sprintf("%d %s", code, body)), clip(string(w))})
		}
	}
	return wrong, bad
}

// checkDurable reopens the primary's data directory after the cluster
// is closed: every acknowledged assert whose fact was not retracted
// later must be present, every acknowledged retraction must hold, and
// the fact count must be the world's plus the outstanding asserts.
func checkDurable(dir string, worldLen int, acks []ack) error {
	db, err := lsdb.Open(lsdb.Options{LogPath: filepath.Join(dir, logName)})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	final := map[[3]string]bool{}
	for _, a := range acks {
		final[[3]string{a.w.s, a.w.r, a.w.t}] = !a.w.del
	}
	present := 0
	for f, want := range final {
		if got := db.HasStored(f[0], f[1], f[2]); got != want {
			return fmt.Errorf("after reopen %v stored=%v, acknowledged writes say %v", f, got, want)
		}
		if want {
			present++
		}
	}
	if db.Len() != worldLen+present {
		return fmt.Errorf("after reopen %d facts stored, want %d", db.Len(), worldLen+present)
	}
	return nil
}
