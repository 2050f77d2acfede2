package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	lsdb "repro"
)

// traceInput is what the traced run replays: the same world, warm-up
// and seeded schedule as the timed window.
type traceInput struct {
	seedLog  string
	runDir   string
	replica  bool
	hc       *http.Client
	names    []string
	warm     []readOp
	items    []schedItem // the schedule's first replayWindow
	stream   []writeOp
	spansOut string

	// From the timed window of the same run.
	lateMS       float64
	torn         float64
	stale412     float64
	rebootstraps float64
}

// traceOutput is the traced run's result.
type traceOutput struct {
	metrics   map[string]metric
	mismatch  []string // span-vs-counter reconciliation failures
	wrong     int      // wrong answers in the replays
	attempted int
	bad       []mismatch
	samples   map[string]string
}

// modules are the layers the trace reports self time for.
var modules = []string{"serve", "rules", "store", "search", "browse", "query", "probe", "ops", "repl", "compose"}

// betweenDeadline is the client deadline of the /between probe.
const betweenDeadline = 2 * time.Second

func traceRun(in traceInput) (*traceOutput, error) {
	out := &traceOutput{metrics: map[string]metric{}, samples: map[string]string{}}
	put := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }

	// The replay runs twice, each time on a fresh cluster and layer
	// replica: untraced, then traced. The difference is the tracing
	// overhead.
	ut := &tracer{off: true, t0: time.Now()}
	ul, u, err := replaySetup(ut, in, "untraced")
	if err != nil {
		return nil, err
	}
	untraced, err := replay(ut, u, ul, in.items, in.stream, newAnswerLog(), map[int]time.Duration{})
	if cerr := u.close(); err == nil {
		err = cerr
	}
	ul.db.Close()
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}

	t := &tracer{t0: time.Now()}
	l, c, err := replaySetup(t, in, "traced")
	if err != nil {
		return nil, err
	}
	defer l.db.Close()
	setupSpans := len(t.spans)
	rBefore := t.ctr.snapshot()
	served := servedCounters(c)
	tBefore := served()
	walBefore := fileSize(l.log)
	answers := newAnswerLog()
	servedCommit := map[int]time.Duration{}
	tracedReads, err := replay(t, c, l, in.items, in.stream, answers, servedCommit)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	walBytes := fileSize(l.log) - walBefore
	rAfter := t.ctr.snapshot()
	tAfter := served()
	rDelta := map[string]int64{}
	for i, n := range t.ctr.names {
		rDelta[n] = rAfter[i] - rBefore[i]
	}
	tDelta := map[string]float64{}
	for k, v := range tAfter {
		tDelta[k] = v - tBefore[k]
	}

	ver := verifyAnswers(answers, streamStates(in.stream))
	out.wrong, out.bad = ver.wrong+ver.torn, ver.bad
	out.attempted = 2 * len(in.items)

	replay := t.spans[setupSpans:]
	by := spanStats(replay)
	out.mismatch = reconcile(by, rDelta, tDelta)

	// The /between probe runs last: nothing cancels the composition on
	// the server, so the abandoned work must not overlap a timed phase.
	betweenS, timedOut := betweenProbe(t, c, in.names)
	if !timedOut {
		c.close()
	}
	by = spanStats(t.spans[setupSpans:])

	// serve
	var readSpans, selfSum, respBytes float64
	byOp := map[int][]*span{}
	for _, s := range replay {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var lockWait []float64
	for _, s := range by["serve.request"] {
		if in.items[s.Op].write >= 0 {
			lockWait = append(lockWait, ms(s.dur()-servedCommit[s.Op]))
			continue
		}
		readSpans++
		selfSum += float64(serveSelf(s, byOp[s.Op])) / float64(time.Microsecond)
	}
	respBytes = tDelta["bytes_out"]
	put("serve.request_self_us", selfSum/max(readSpans, 1), "us")
	put("serve.resp_bytes_per_read", respBytes/max(readSpans, 1), "B")
	endpointSpans := map[string][]*span{}
	for _, s := range by["serve.request"] {
		ep := "facts"
		if it := in.items[s.Op]; it.write < 0 {
			ep = it.read.kind.endpoint()
		}
		endpointSpans[ep] = append(endpointSpans[ep], s)
	}
	for _, ep := range []string{"navigate", "query", "derive", "try", "probe", "search", "batch", "facts"} {
		d := summarise(durationsMS(endpointSpans[ep]))
		put("serve."+ep+"_p50_ms", d.p50, "ms")
		put("serve."+ep+"_tail_ms", d.tail, "ms")
		out.samples["serve."+ep] = fmt.Sprintf("n=%d, tail=%s", d.n, d.tailAt)
	}
	put("serve.write_lock_wait_ms", mean(lockWait), "ms")
	put("serve.torn_reads", in.torn, "count")

	// rules
	pub := summarise(durationsMS(by["rules.publish"]))
	put("rules.publish_p50_ms", pub.p50, "ms")
	put("rules.publish_tail_ms", pub.tail, "ms")
	out.samples["rules.publish"] = fmt.Sprintf("n=%d, tail=%s", pub.n, pub.tailAt)
	for _, k := range []string{"incremental", "delete", "full"} {
		put("rules.rebuilds_"+k, float64(rDelta["rebuilds_"+k]), "count")
	}
	setup := spanStats(t.spans[:setupSpans])
	put("rules.full_build_s", setup["rules.publish"][0].dur().Seconds(), "s")
	closureFacts := float64(l.db.Engine().MaterializedSize())
	put("rules.closure_facts", closureFacts, "count")
	put("rules.match_us", meanUS(by["rules.match"]), "us")
	put("rules.ondemand_us", meanUS(by["rules.ondemand"]), "us")
	reads := float64(len(in.items) - len(by["store.commit"]))
	put("rules.facts_scanned", float64(rDelta["facts_scanned"]), "count")
	put("rules.facts_scanned_per_op", float64(rDelta["facts_scanned"])/max(reads, 1), "count")
	hits, misses := float64(rDelta["subgoal_hits"]), float64(rDelta["subgoal_misses"])
	put("rules.subgoal_hits", hits, "count")
	put("rules.subgoal_misses", misses, "count")
	put("rules.subgoal_hit_ratio", hits/max(hits+misses, 1), "1")
	var evicted int64
	for _, r := range []string{"dependency", "ruleset", "epoch", "history"} {
		evicted += rDelta["subgoal_evicted_"+r]
	}
	put("rules.subgoal_evicted", float64(evicted), "count")

	// store
	commits := by["store.commit"]
	cd := summarise(durationsMS(commits))
	put("store.commit_p50_ms", cd.p50, "ms")
	put("store.commit_tail_ms", cd.tail, "ms")
	out.samples["store.commit"] = fmt.Sprintf("n=%d, tail=%s", cd.n, cd.tailAt)
	put("store.fsyncs", float64(rDelta["fsyncs"]), "count")
	put("store.fsyncs_per_write", float64(rDelta["fsyncs"])/max(float64(len(commits)), 1), "count")
	put("store.wal_bytes_per_write", float64(walBytes)/max(float64(len(commits)), 1), "B")
	put("store.open_ms", ms(setup["store.open"][0].dur()), "ms")
	seal := l.db.Metrics().Histogram("lsdb_index_seal_ns")
	put("store.seal_ms", float64(seal.Sum())/max(float64(seal.Count()), 1)/1e6, "ms")
	put("store.index_bytes_per_fact", l.db.Metrics().Value("lsdb_index_posting_bytes")/max(closureFacts, 1), "B")

	// search
	put("search.query_us", meanUS(by["search.query"]), "us")
	put("search.refresh_ms", meanUS(by["search.refresh"])/1000, "ms")
	put("search.index_builds", float64(rDelta["search_builds"]), "count")
	put("search.index_bytes", l.db.Metrics().Value("lsdb_search_index_bytes"), "B")

	// browse, query, probe, ops
	put("browse.neighborhood_us", meanUS(by["browse.neighborhood"]), "us")
	put("query.parse_us", meanUS(by["query.parse"]), "us")
	put("query.eval_us", meanUS(by["query.eval"]), "us")
	put("probe.probe_us", meanUS(by["probe.probe"]), "us")
	put("ops.try_us", meanUS(by["ops.try"]), "us")

	// repl
	put("repl.bootstrap_s", c.bootstrapDur.Seconds(), "s")
	lag := summarise(durationsMS(by["repl.lag"]))
	put("repl.lag_p50_ms", lag.p50, "ms")
	put("repl.lag_tail_ms", lag.tail, "ms")
	out.samples["repl.lag"] = fmt.Sprintf("n=%d, tail=%s", lag.n, lag.tailAt)
	put("repl.min_lsn_wait_ms", meanUS(by["repl.min_lsn_wait"])/1000, "ms")
	put("repl.stale_412", in.stale412, "count")
	put("repl.rebootstraps", in.rebootstraps, "count")

	// compose
	put("compose.between_probe_s", betweenS, "s")
	put("compose.between_timeouts", float64(boolInt(timedOut)), "count")

	// self times, validity
	for m, v := range selfTimes(t.spans[setupSpans:], modules) {
		put(m+".self_ms", v, "ms")
	}
	put("trace.overhead_pct", 100*(median(tracedReads)/median(untraced)-1), "%")
	put("loadgen.late_ms", in.lateMS, "ms")
	out.samples["replay"] = fmt.Sprintf("%d operations (%d writes) from the schedule's first %s, %d spans",
		len(in.items), len(commits), replayWindow, len(t.spans))

	if err := t.write(in.spansOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

// replaySetup opens a layer replica from the seeded data directory
// (its open, first closure build and first search index build are the
// set-up spans) and a cluster, and sends both the window's warm-up.
func replaySetup(t *tracer, in traceInput, name string) (*layers, *cluster, error) {
	l := &layers{log: filepath.Join(in.runDir, name+"-layers", logName)}
	if err := os.MkdirAll(filepath.Dir(l.log), 0o755); err != nil {
		return nil, nil, err
	}
	if err := copyFile(in.seedLog, l.log); err != nil {
		return nil, nil, err
	}
	var err error
	t.span(nil, -1, "store.open", func() { l.db, err = lsdb.Open(lsdb.Options{LogPath: l.log}) })
	if err != nil {
		return nil, nil, fmt.Errorf("layer replica: %w", err)
	}
	t.ctr = newCounters(l.db.Metrics())
	t.span(nil, -1, "rules.publish", func() { l.db.Engine().Closure() })
	t.span(nil, -1, "search.refresh", func() { l.idxVer = l.db.Searcher().Refresh().Version })
	c, err := startCluster(in.seedLog, filepath.Join(in.runDir, name), in.replica, in.hc, in.names[0])
	if err != nil {
		l.db.Close()
		return nil, nil, fmt.Errorf("%s replay setup: %w", name, err)
	}
	warm(c, l, in.warm)
	return l, c, nil
}

// servedCounters reads the served cluster's registries: requests per
// endpoint over both tenants, response bytes and closure and index
// rebuilds of the read tenant.
func servedCounters(c *cluster) func() map[string]float64 {
	regs := []*lsdb.Database{c.primary}
	if c.follower != nil {
		regs = append(regs, c.follower)
	}
	read := c.readDB().Metrics()
	return func() map[string]float64 {
		m := map[string]float64{}
		for _, db := range regs {
			for _, ep := range []string{"navigate", "query", "derive", "try", "probe", "search", "batch", "facts"} {
				m["requests_"+ep] += db.Metrics().Value("lsdb_http_requests_total", "endpoint", ep)
			}
		}
		for _, k := range []string{"incremental", "delete", "full"} {
			m["rebuilds_"+k] = read.Value("lsdb_rules_rebuilds_total", "kind", k)
		}
		m["search_builds"] = read.Value("lsdb_search_index_builds_total")
		m["bytes_out"] = read.Value("lsdb_http_bytes_out_total")
		return m
	}
}

// reconcile checks the replay's spans against the registry deltas over
// the same interval. Every check is an exact count.
func reconcile(by map[string][]*span, r map[string]int64, served map[string]float64) []string {
	var bad []string
	check := func(what string, spans int, counter int64) {
		if int64(spans) != counter {
			bad = append(bad, fmt.Sprintf("%s: %d spans, counter moved %d", what, spans, counter))
		}
	}
	check("rules.publish vs lsdb_rules_rebuilds_total", len(by["rules.publish"]), r["rebuilds_incremental"]+r["rebuilds_delete"]+r["rebuilds_full"])
	check("search.refresh vs lsdb_search_index_builds_total", len(by["search.refresh"]), r["search_builds"])
	check("search.query vs lsdb_search_queries_total", len(by["search.query"]), r["search_queries"])
	check("browse.neighborhood vs lsdb_browse_steps_total", len(by["browse.neighborhood"]), r["neighborhoods"])
	check("store.commit vs lsdb_store_commits_total", len(by["store.commit"]), r["commits"])
	check("store.commit vs lsdb_wal_fsyncs_total", len(by["store.commit"]), r["fsyncs"])
	counts := map[string]int{"facts": len(by["op.write"])}
	for k, ss := range by {
		if ep, ok := strings.CutPrefix(k, "op."); ok && ep != "write" {
			if ep == "derive_trace" {
				ep = "derive"
			}
			counts[ep] += len(ss)
		}
	}
	eps := make([]string, 0, len(counts))
	for ep := range counts {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		check("serve.request /"+ep+" vs lsdb_http_requests_total", counts[ep], int64(served["requests_"+ep]))
	}
	// The served read tenant and the layer replica did the same work.
	for _, k := range []string{"incremental", "delete", "full"} {
		check("layer replica vs served rebuilds_"+k, int(r["rebuilds_"+k]), int64(served["rebuilds_"+k]))
	}
	check("layer replica vs served search index builds", int(r["search_builds"]), int64(served["search_builds"]))
	return bad
}

// betweenProbe sends one /between for a fixed stored-fact pair — a
// tail entity and its first stored neighbour — with a client deadline.
// It reports the seconds until the answer or the deadline, and whether
// the deadline hit.
func betweenProbe(t *tracer, c *cluster, names []string) (float64, bool) {
	src := names[len(names)*3/5]
	tgt := ""
	db := c.readDB()
	for _, f := range db.Store().MatchAll(db.Entity(src), 0, 0) {
		if n := db.Name(f.T); n != src && n[0] == 'N' {
			tgt = n
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), betweenDeadline)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/between?db=%s&src=%s&tgt=%s", c.base, c.readTenant(), src, tgt), nil) // names are plain ASCII
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var timedOut bool
	start := time.Now()
	t.span(nil, len(t.spans), "compose.between", func() {
		resp, err := hc.Do(req)
		if err != nil {
			timedOut = ctx.Err() != nil
			return
		}
		resp.Body.Close()
	})
	return time.Since(start).Seconds(), timedOut
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
