package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// writeOp is one write of the stream and the query whose truth value
// shows it: a fresh REL-06 edge or K3 membership between W-entities,
// later retracted by the stream itself, so the world size stays
// constant.
type writeOp struct {
	del     bool
	s, r, t string
	check   string
}

// writeStream returns n writes in cycles of four: assert an edge,
// assert a membership, retract the edge, retract the membership. The
// membership is checked through the taxonomy (K3 isa K2 isa K1 isa K0),
// so it is visible only once the closure is republished.
func writeStream(n int) []writeOp {
	out := make([]writeOp, n)
	for i := range out {
		a := fmt.Sprintf("W%04dA", i/4)
		b := fmt.Sprintf("W%04dB", i/4)
		edge := writeOp{s: a, r: "REL-06", t: b, check: fmt.Sprintf("(%s, REL-06, %s)", a, b)}
		member := writeOp{s: a, r: "in", t: "K3", check: fmt.Sprintf("(%s, in, K0)", a)}
		switch i % 4 {
		case 0:
			out[i] = edge
		case 1:
			out[i] = member
		case 2:
			edge.del = true
			out[i] = edge
		case 3:
			member.del = true
			out[i] = member
		}
	}
	return out
}

// ack is one acknowledged write.
type ack struct {
	w   writeOp
	lsn uint64
}

// client sends the workload over HTTP. All traffic shares one
// transport capped at nproc connections to the one server.
type client struct {
	hc      *http.Client
	base    string
	readDB  string
	replica bool
	stream  []writeOp // the run's writes, sent in this order

	turnMu sync.Mutex
	turn   *sync.Cond // signalled when next advances
	next   int        // index of the next write allowed to send
	acks   []ack      // acknowledged writes, in stream order

	sent    atomic.Int64  // writes sent so far (a read's upper state bound)
	acked   atomic.Int64  // writes acknowledged so far (a read's lower state bound)
	lastLSN atomic.Uint64 // the newest acknowledged LSN: reads carry it as min_lsn on replica

	answers  *answerLog
	failures atomic.Int64 // transport errors, refusals, non-200s, unobserved writes
	status   sync.Map     // "endpoint status" → *atomic.Int64, for the report
}

func newClient(hc *http.Client, c *cluster, stream []writeOp) *client {
	cc := &client{hc: hc, base: c.base, readDB: c.readTenant(), replica: c.fl != nil, stream: stream, answers: newAnswerLog()}
	cc.turn = sync.NewCond(&cc.turnMu)
	cc.lastLSN.Store(c.primary.LSN())
	return cc
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: requestTimeout,
	}
}

// requestTimeout bounds every request of the workload; a request that
// takes longer counts as failed.
const requestTimeout = 10 * time.Second

func (c *client) noteStatus(endpoint string, code int) {
	k := endpoint + " " + strconv.Itoa(code)
	v, _ := c.status.LoadOrStore(k, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// read sends one read of the mix and logs its answer for checking. It
// reports whether the read was answered 200.
func (c *client) read(op readOp) bool {
	// acked is read before lastLSN, which write stores first, so the
	// min_lsn sent always covers the writes counted in lo.
	lo := c.acked.Load()
	var req *http.Request
	var err error
	q := "db=" + c.readDB
	if c.replica {
		q += "&min_lsn=" + strconv.FormatUint(c.lastLSN.Load(), 10)
	}
	if op.kind == kBatch {
		req, err = http.NewRequest(http.MethodPost, c.base+"/batch?"+q, bytes.NewReader(op.body()))
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+op.path()+"&"+q, nil)
	}
	if err != nil {
		c.failures.Add(1)
		return false
	}
	code, body, err := c.do(req)
	hi := c.sent.Load()
	if err != nil || code != http.StatusOK {
		c.noteStatus(op.kind.endpoint(), code)
		c.failures.Add(1)
		return false
	}
	c.answers.record(op, body, stateRange{int32(lo), int32(hi)})
	return true
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// write sends write i of the stream to the primary, after every
// earlier write has been answered, and then reads the read tenant
// until the write shows. It returns the send time, the ack time and
// the time of the first read that reflects the write.
func (c *client) write(i int) (sent, acked, visible time.Time, ok bool) {
	w := c.stream[i]
	c.turnMu.Lock()
	for c.next != i {
		c.turn.Wait()
	}
	c.turnMu.Unlock()
	defer func() {
		c.turnMu.Lock()
		c.next++
		c.turn.Broadcast()
		c.turnMu.Unlock()
	}()
	var req *http.Request
	var err error
	if w.del {
		v := url.Values{"db": {primaryTenant}, "s": {w.s}, "r": {w.r}, "t": {w.t}}
		req, err = http.NewRequest(http.MethodDelete, c.base+"/facts?"+v.Encode(), nil)
	} else {
		b, _ := json.Marshal(factJSON{w.s, w.r, w.t}) // plain strings always marshal
		req, err = http.NewRequest(http.MethodPost, c.base+"/facts?db="+primaryTenant, bytes.NewReader(b))
	}
	if err != nil {
		c.failures.Add(1)
		return
	}
	c.sent.Store(int64(i + 1))
	sent = time.Now()
	code, body, err := c.do(req)
	acked = time.Now()
	var res struct {
		LSN       uint64 `json:"lsn"`
		Retracted *bool  `json:"retracted"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &res)
	}
	if err != nil || code != http.StatusOK || (w.del && (res.Retracted == nil || !*res.Retracted)) {
		c.noteStatus("facts", code)
		c.failures.Add(1)
		return
	}
	c.turnMu.Lock()
	c.acks = append(c.acks, ack{w, res.LSN})
	c.turnMu.Unlock()
	c.lastLSN.Store(res.LSN)
	c.acked.Store(int64(i + 1))
	visible, ok = c.awaitVisible(w, res.LSN)
	if !ok {
		c.failures.Add(1)
	}
	return sent, acked, visible, ok
}

// awaitVisible queries the read tenant until the write's check query
// has the truth value the write gives it.
func (c *client) awaitVisible(w writeOp, lsn uint64) (time.Time, bool) {
	v := url.Values{"db": {c.readDB}, "q": {w.check}}
	if c.replica {
		v.Set("min_lsn", strconv.FormatUint(lsn, 10))
	}
	u := c.base + "/query?" + v.Encode()
	for deadline := time.Now().Add(requestTimeout); time.Now().Before(deadline); {
		req, _ := http.NewRequest(http.MethodGet, u, nil) // u is built from url.Values
		code, body, err := c.do(req)
		if err != nil || code != http.StatusOK {
			c.noteStatus("query", code)
			return time.Time{}, false
		}
		var res struct {
			True bool `json:"true"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return time.Time{}, false
		}
		if res.True != w.del {
			return time.Now(), true
		}
	}
	return time.Time{}, false
}

// answerLog keeps one body per distinct (request, answer) pair seen,
// with the write-stream states the answer may reflect, so every answer
// of the run is checked after the window at the cost of one hash per
// response during it.
type answerLog struct {
	mu    sync.Mutex
	byKey map[string]*answers
}

// stateRange is the span of write-stream states a read may observe:
// lo writes were acknowledged when it was sent, at most hi had been
// sent when it was answered.
type stateRange [2]int32

type answers struct {
	op     readOp
	bodies map[uint64][]byte
	ranges map[uint64]map[stateRange]int
}

func newAnswerLog() *answerLog { return &answerLog{byKey: make(map[string]*answers)} }

func (l *answerLog) record(op readOp, body []byte, r stateRange) {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	k := op.key()
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.byKey[k]
	if a == nil {
		a = &answers{op: op, bodies: make(map[uint64][]byte), ranges: make(map[uint64]map[stateRange]int)}
		l.byKey[k] = a
	}
	if _, ok := a.bodies[sum]; !ok {
		a.bodies[sum] = body
		a.ranges[sum] = make(map[stateRange]int)
	}
	a.ranges[sum][r]++
}

// The open loop is the latency phase: reads are due at a constant
// rate, with a seeded phase, and writes at a fixed period, whether or
// not earlier requests have finished. At most conns requests are in
// flight; a request that waits for a connection is late, and every
// request is timed from the moment it was due. A constant rate rather
// than random arrivals keeps the share of reads that meet a closure
// republish the same from run to run.
type schedItem struct {
	due   time.Duration
	write int // index into the write stream, or -1 for a read
	read  readOp
}

func schedule(g *opGen, rate float64, dur time.Duration, writes []int, period time.Duration) []schedItem {
	var items []schedItem
	gap := float64(time.Second) / rate
	for t := g.rng.Float64() * gap; t < float64(dur); t += gap {
		items = append(items, schedItem{due: time.Duration(t), write: -1, read: g.next()})
	}
	for i, w := range writes {
		items = append(items, schedItem{due: period/2 + time.Duration(i)*period, write: w})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].due < items[j].due })
	return items
}

// phaseResult collects one phase's samples, in milliseconds.
type phaseResult struct {
	reads    []float64 // read latency; +Inf for a failed read
	goodAt   []float64 // closed loop: seconds into the phase at which each good read finished
	late     []float64 // open loop: how late each request was sent
	writes   []float64 // write ack latency; +Inf for a failed write
	visible  []float64 // write send until first read that reflects it; +Inf if never
	readsOK  int
	attempts int
}

func (p *phaseResult) merge(o *phaseResult) {
	p.reads = append(p.reads, o.reads...)
	p.goodAt = append(p.goodAt, o.goodAt...)
	p.late = append(p.late, o.late...)
	p.writes = append(p.writes, o.writes...)
	p.visible = append(p.visible, o.visible...)
	p.readsOK += o.readsOK
	p.attempts += o.attempts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var inf = math.Inf(1)

// runWrite performs write w and records its samples into r. base is
// the time ack latency is measured from.
func (c *client) runWrite(i int, base time.Time, r *phaseResult) {
	sent, acked, visible, ok := c.write(i)
	r.attempts++
	switch {
	case sent.IsZero():
		r.writes = append(r.writes, inf)
		r.visible = append(r.visible, inf)
	case !ok:
		r.writes = append(r.writes, ms(acked.Sub(base)))
		r.visible = append(r.visible, inf)
	default:
		r.writes = append(r.writes, ms(acked.Sub(base)))
		r.visible = append(r.visible, ms(visible.Sub(sent)))
	}
}

func (c *client) openLoop(items []schedItem, conns int) *phaseResult {
	start := time.Now()
	var next atomic.Int64
	parts := make([]phaseResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(r *phaseResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				due := start.Add(it.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r.late = append(r.late, ms(time.Since(due)))
				if it.write >= 0 {
					c.runWrite(it.write, due, r)
					continue
				}
				r.attempts++
				if c.read(it.read) {
					r.readsOK++
					r.reads = append(r.reads, ms(time.Since(due)))
				} else {
					r.reads = append(r.reads, inf)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phaseResult{}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// latencyLimit is the read latency a browse step must meet to count
// toward goodput.
const latencyLimit = 100 * time.Millisecond

// closedLoop is the capacity phase: conns clients each send the next
// request as soon as the previous one is answered, for dur. Writes
// keep their fixed period: the first client free after a write is due
// sends it.
func (c *client) closedLoop(g *opGen, dur time.Duration, writes []int, period time.Duration, conns int) *phaseResult {
	start := time.Now()
	end := start.Add(dur)
	var genMu sync.Mutex
	var nextWrite atomic.Int64
	parts := make([]phaseResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(r *phaseResult) {
			defer wg.Done()
			for {
				i := nextWrite.Load()
				if int(i) < len(writes) {
					due := start.Add(period/2 + time.Duration(i)*period)
					if !time.Now().Before(due) && nextWrite.CompareAndSwap(i, i+1) {
						c.runWrite(writes[i], due, r)
						continue
					}
				}
				if !time.Now().Before(end) {
					if int(i) < len(writes) {
						// The stream's length is fixed, so percentiles keep
						// their meaning: a write still pending at the end is
						// sent when due, with no more reads.
						time.Sleep(time.Millisecond)
						continue
					}
					return
				}
				genMu.Lock()
				op := g.next()
				genMu.Unlock()
				t0 := time.Now()
				r.attempts++
				if c.read(op) {
					d := time.Since(t0)
					r.readsOK++
					r.reads = append(r.reads, ms(d))
					if d <= latencyLimit {
						r.goodAt = append(r.goodAt, time.Since(start).Seconds())
					}
				} else {
					r.reads = append(r.reads, inf)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phaseResult{}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// goodput is the median over the phase's whole seconds of the reads
// per second answered within the latency limit: a second in which
// something else held the machine moves it less than a mean.
func goodput(goodAt []float64, dur time.Duration) float64 {
	secs := make([]float64, int(dur/time.Second))
	if len(secs) == 0 {
		return float64(len(goodAt)) / dur.Seconds()
	}
	for _, t := range goodAt {
		if i := int(t); i < len(secs) {
			secs[i]++
		}
	}
	return median(secs)
}
